//! Diagnostic names that are data until somebody reads them. Flows, wakers,
//! events and streams are named for traces, recorders, `Debug` prints and
//! deadlock panics; a run that has none of those formats no name.

use std::fmt;
use std::sync::Arc;

/// The text of a numbered name, one `{}` per number, and the bits each number
/// keeps (1 to 63, at most 64 together): a wider one displays modulo `2^bits`.
pub struct Template(pub &'static str, pub &'static [u32]);

impl Template {
    /// This template over `fields`, one per `{}`; allocates, formats nothing.
    pub fn label(&'static self, fields: &[u64]) -> Label {
        debug_assert_eq!(fields.len(), self.1.len());
        let pack = |acc: u64, (&v, &bits): (&u64, &u32)| acc << bits | v & ((1 << bits) - 1);
        Label::Numbered(self, fields.iter().zip(self.1).rev().fold(0, pack))
    }
}

/// A diagnostic name, rendered by `Display`. Cloning never copies text.
#[derive(Clone)]
pub enum Label {
    /// Text that already exists, shared.
    Text(Arc<str>),
    /// A template and its numbers as [`Template::label`] packs them.
    Numbered(&'static Template, u64),
}

impl<T: Into<Arc<str>>> From<T> for Label {
    fn from(text: T) -> Label {
        Label::Text(text.into())
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (Template(text, widths), mut packed) = match self {
            Label::Text(text) => return f.write_str(text),
            Label::Numbered(template, packed) => (template, *packed),
        };
        let mut pieces = text.split("{}");
        f.write_str(pieces.next().unwrap_or(""))?;
        for (piece, &bits) in pieces.zip(*widths) {
            write!(f, "{}{piece}", packed & ((1 << bits) - 1))?;
            packed >>= bits;
        }
        Ok(())
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\"{self}\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static CHUNK: Template = Template("xfer{}.p{}.c{}.leg1", &[40, 8, 16]);
    static STREAM: Template = Template("dev{}.s{}", &[16, 48]);

    #[test]
    fn an_optional_label_fits_three_words() {
        assert!(std::mem::size_of::<Option<Label>>() <= 24);
    }

    #[test]
    fn a_numbered_label_renders_what_format_would() {
        for i in 0..300u64 {
            // Spread over each field's range, ends included.
            let (seq, path, chunk) = (i * 3_665_038_759 % (1 << 40), i % 256, i * 219 % 65_536);
            assert_eq!(
                CHUNK.label(&[seq, path, chunk]).to_string(),
                format!("xfer{seq}.p{path}.c{chunk}.leg1")
            );
            let (dev, n) = (i * 211 % 65_536, (i * 938_249_922_369) % (1 << 48));
            assert_eq!(
                STREAM.label(&[dev, n]).to_string(),
                format!("dev{dev}.s{n}")
            );
        }
        let ends = [(1 << 40) - 1, 255, 65_535];
        assert_eq!(
            CHUNK.label(&ends).to_string(),
            "xfer1099511627775.p255.c65535.leg1"
        );
    }

    #[test]
    fn a_value_wider_than_its_field_wraps() {
        let label = CHUNK.label(&[(1 << 40) + 7, 256 + 3, 65_536 + 9]);
        assert_eq!(label.to_string(), "xfer7.p3.c9.leg1");
        assert_eq!(STREAM.label(&[65_536, 1 << 48]).to_string(), "dev0.s0");
    }

    #[test]
    fn text_converts_from_what_callers_hold_and_clones_share_it() {
        let from_str: Label = "probe".into();
        let from_string: Label = String::from("probe").into();
        let shared: Arc<str> = Arc::from("probe");
        let from_arc: Label = shared.clone().into();
        let cloned = from_arc.clone();
        for label in [&from_str, &from_string, &from_arc, &cloned] {
            assert_eq!(label.to_string(), "probe");
            assert_eq!(format!("{label:?}"), "\"probe\"");
        }
        assert_eq!(Arc::strong_count(&shared), 3, "a clone shares the text");
    }
}
