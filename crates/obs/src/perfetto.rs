//! Chrome trace-event export: renders drained [`Event`]s as the JSON
//! array flavour loadable in `chrome://tracing` or Perfetto. Every
//! distinct track (link, path lane, rank, fabric) becomes one `tid` with
//! a `thread_name` metadata record; spans are complete events
//! (`ph: "X"`), instants are `ph: "i"` markers; the phase is the `cat`
//! field so one pipeline stage can be filtered in the UI.

use crate::span::{Event, Phase};

/// Escapes a string for embedding in a JSON literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes telemetry events to Chrome trace-event JSON. Virtual-time
/// seconds become microsecond `ts`/`dur` fields; tracks are assigned
/// `tid`s in order of first appearance.
pub fn export_chrome_trace(events: &[Event]) -> String {
    fn tid_of(tracks: &mut Vec<String>, track: &str) -> usize {
        match tracks.iter().position(|t| t == track) {
            Some(i) => i,
            None => {
                tracks.push(track.to_string());
                tracks.len() - 1
            }
        }
    }
    let mut tracks: Vec<String> = Vec::new();
    let mut out = String::from("[\n");
    for ev in events {
        let tid = tid_of(&mut tracks, ev.track());
        match ev {
            Event::Span(s) => {
                out.push_str(&format!(
                    "  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \
                     \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \
                     \"args\": {{\"detail\": \"{}\"}}}},\n",
                    esc(&s.name),
                    s.phase.label(),
                    tid,
                    s.start * 1e6,
                    (s.end - s.start) * 1e6,
                    esc(&s.detail)
                ));
            }
            Event::Instant(i) => {
                out.push_str(&format!(
                    "  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"i\", \"s\": \"t\", \
                     \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \
                     \"args\": {{\"detail\": \"{}\"}}}},\n",
                    esc(&i.name),
                    i.phase.label(),
                    tid,
                    i.at * 1e6,
                    esc(&i.detail)
                ));
            }
        }
    }
    // Process metadata first, then one thread_name record per track, so
    // Perfetto labels the process row and every track row correctly.
    if !tracks.is_empty() {
        out.push_str(
            "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \
             \"args\": {\"name\": \"mpx\"}},\n",
        );
    }
    for (i, t) in tracks.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {i}, \
             \"args\": {{\"name\": \"{}\"}}}},\n",
            esc(t)
        ));
    }
    if out.ends_with(",\n") {
        out.truncate(out.len() - 2);
        out.push('\n');
    }
    out.push(']');
    out
}

/// Phases with at least one event present — the trace-export smoke's
/// coverage check.
pub fn phases_present(events: &[Event]) -> Vec<Phase> {
    Phase::ALL
        .into_iter()
        .filter(|p| events.iter().any(|e| e.phase() == *p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Recorder;

    #[test]
    fn export_is_valid_json_with_tracks_and_instants() {
        let r = Recorder::new();
        r.span(Phase::Transfer, "xfer0", "put 64M", 0.0, 1.0e-3, "3 paths");
        r.span(
            Phase::ChunkLeg,
            "link:gpu0->gpu2",
            "xfer0.p1.c0.leg1",
            0.0,
            5.0e-4,
            "",
        );
        r.instant(Phase::Fault, "fabric", "kill link 3", 4.0e-4, "kill");
        let events = r.drain();
        let json = export_chrome_trace(&events);
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let arr = parsed.as_array().unwrap();
        // 3 events + 1 process + 3 track metadata records.
        assert_eq!(arr.len(), 7, "{json}");
        let names: Vec<&str> = arr
            .iter()
            .filter(|e| e["ph"] == "M")
            .map(|e| e["args"]["name"].as_str().unwrap())
            .collect();
        assert!(names.contains(&"mpx"), "process_name record present");
        assert!(
            arr.iter()
                .any(|e| e["ph"] == "M" && e["name"] == "process_name"),
            "process metadata record"
        );
        assert!(names.contains(&"xfer0"));
        assert!(names.contains(&"link:gpu0->gpu2"));
        assert!(names.contains(&"fabric"));
        let instant = arr.iter().find(|e| e["ph"] == "i").expect("instant event");
        assert_eq!(instant["cat"], "fault");
        assert!((instant["ts"].as_f64().unwrap() - 400.0).abs() < 1e-6);
        let span = arr.iter().find(|e| e["cat"] == "transfer").unwrap();
        assert!((span["dur"].as_f64().unwrap() - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn export_escapes_quotes_and_newlines() {
        let r = Recorder::new();
        r.instant(Phase::Plan, "t", "odd \"name\"\n", 0.0, "a\\b");
        let json = export_chrome_trace(&r.drain());
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let ev = &parsed.as_array().unwrap()[0];
        assert_eq!(ev["name"].as_str().unwrap(), "odd \"name\"\n");
        assert_eq!(ev["args"]["detail"].as_str().unwrap(), "a\\b");
    }

    #[test]
    fn hostile_detail_strings_stay_valid_json() {
        // Every JSON metacharacter and control byte an adversarial
        // detail string could carry must survive a parse round-trip.
        let hostile = "\"},{\"pwn\":1}\n\r\t\\ \u{0001}\u{001f} end\"";
        let r = Recorder::new();
        r.span(Phase::Transfer, hostile, hostile, 0.0, 1e-6, hostile);
        r.instant(Phase::Health, "t\"r\\ack", hostile, 2e-6, hostile);
        let json = export_chrome_trace(&r.drain());
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let arr = parsed.as_array().unwrap();
        // 2 events + process + 2 tracks; the injection attempt did not
        // add records.
        assert_eq!(arr.len(), 5, "{json}");
        let span = arr.iter().find(|e| e["ph"] == "X").unwrap();
        assert_eq!(span["name"].as_str().unwrap(), hostile);
        assert_eq!(span["args"]["detail"].as_str().unwrap(), hostile);
        let meta: Vec<&str> = arr
            .iter()
            .filter(|e| e["name"] == "thread_name")
            .map(|e| e["args"]["name"].as_str().unwrap())
            .collect();
        assert!(meta.contains(&hostile));
        assert!(meta.contains(&"t\"r\\ack"));
    }

    #[test]
    fn empty_event_list_exports_empty_array() {
        let json = export_chrome_trace(&[]);
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.as_array().unwrap().len(), 0);
    }

    #[test]
    fn phases_present_reports_coverage() {
        let r = Recorder::new();
        r.span(Phase::Plan, "t", "p", 0.0, 0.0, "");
        r.instant(Phase::Fault, "t", "f", 0.0, "");
        let evs = r.drain();
        let phases = phases_present(&evs);
        assert!(phases.contains(&Phase::Plan));
        assert!(phases.contains(&Phase::Fault));
        assert!(!phases.contains(&Phase::Probe));
    }
}
