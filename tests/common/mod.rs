//! Helpers shared by the integration suites whose failure mode is a hang.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

pub const WATCHDOG: Duration = Duration::from_secs(60);

/// Runs `body` on its own thread and fails if it has not finished within
/// [`WATCHDOG`] of wall-clock time; a panic in `body` is re-raised.
pub fn watchdog<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let h = thread::spawn(move || {
        let _ = tx.send(body());
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(v) => v,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("no result after {WATCHDOG:?}: a thread is stuck (lost wake-up or deadlock)")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(h.join().expect_err("sender dropped without sending"))
        }
    }
}
