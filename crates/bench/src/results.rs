//! Reading and writing `BENCH_SIM.json` result documents.
//!
//! The document grammar (schema) lives here; the JSON mechanics — escaping,
//! rendering, the typed-error parser — are the shared
//! [`refrint_engine::json`] module, so the bench suite, the CLI and
//! `refrint-serve` all speak through one implementation.

use std::fmt;

use refrint_engine::json::{escape, JsonError, Value};

use crate::throughput::Measurement;

/// A recorded results document: suite mode plus one entry per scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultsDoc {
    /// Effort label the results were recorded at (`quick` / `full`).
    pub mode: String,
    /// One entry per scenario, in suite order.
    pub metrics: Vec<Measurement>,
}

/// Renders a results document as pretty-printed JSON.
#[must_use]
pub fn render(doc: &ResultsDoc) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"suite\": \"sim_throughput\",\n");
    out.push_str(&format!("  \"mode\": \"{}\",\n", escape(&doc.mode)));
    out.push_str("  \"metrics\": [\n");
    for (i, m) in doc.metrics.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"refs\": {}, \"refs_per_sec\": {:.1}, \"execution_cycles\": {}}}{}\n",
            escape(&m.name),
            m.refs,
            m.refs_per_sec,
            m.execution_cycles,
            if i + 1 < doc.metrics.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Why a results document failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The JSON text itself is malformed.
    Syntax {
        /// Byte offset of the offending input.
        offset: usize,
        /// What went wrong.
        reason: String,
    },
    /// The JSON is valid but not a results document.
    Schema(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Syntax { offset, reason } => {
                write!(f, "malformed JSON at byte {offset}: {reason}")
            }
            ParseError::Schema(reason) => write!(f, "not a sim_throughput document: {reason}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<JsonError> for ParseError {
    fn from(err: JsonError) -> Self {
        ParseError::Syntax {
            offset: err.offset,
            reason: err.reason,
        }
    }
}

/// Parses a results document.
///
/// # Errors
///
/// Returns [`ParseError::Syntax`] for malformed JSON and
/// [`ParseError::Schema`] for valid JSON that is not a `sim_throughput`
/// document.
pub fn parse(text: &str) -> Result<ResultsDoc, ParseError> {
    let root = refrint_engine::json::parse(text)?;

    let suite = root
        .get("suite")
        .and_then(Value::as_str)
        .ok_or_else(|| ParseError::Schema("missing \"suite\"".to_owned()))?;
    if suite != "sim_throughput" {
        return Err(ParseError::Schema(format!("unknown suite \"{suite}\"")));
    }
    let mode = root
        .get("mode")
        .and_then(Value::as_str)
        .ok_or_else(|| ParseError::Schema("missing \"mode\"".to_owned()))?
        .to_owned();
    let metrics = match root.get("metrics") {
        Some(Value::Arr(items)) => items,
        _ => return Err(ParseError::Schema("missing \"metrics\" array".to_owned())),
    };
    let mut out = Vec::with_capacity(metrics.len());
    for (i, item) in metrics.iter().enumerate() {
        let field = |key: &str| {
            item.get(key)
                .and_then(Value::as_num)
                .ok_or_else(|| ParseError::Schema(format!("metric {i}: missing \"{key}\"")))
        };
        let name = item
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| ParseError::Schema(format!("metric {i}: missing \"name\"")))?
            .to_owned();
        out.push(Measurement {
            name,
            refs: field("refs")? as u64,
            refs_per_sec: field("refs_per_sec")?,
            execution_cycles: field("execution_cycles")? as u64,
        });
    }
    Ok(ResultsDoc { mode, metrics: out })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> ResultsDoc {
        ResultsDoc {
            mode: "quick".to_owned(),
            metrics: vec![
                Measurement {
                    name: "lu".to_owned(),
                    refs: 32_000,
                    refs_per_sec: 123_456.5,
                    execution_cycles: 987_654,
                },
                Measurement {
                    name: "fft".to_owned(),
                    refs: 32_000,
                    refs_per_sec: 98_765.5,
                    execution_cycles: 123,
                },
            ],
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let d = doc();
        let text = render(&d);
        let back = parse(&text).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn malformed_json_reports_offset() {
        let err = parse("{\"suite\": ").unwrap_err();
        assert!(matches!(err, ParseError::Syntax { .. }), "{err}");
        let err = parse("{}extra").unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn wrong_schema_is_a_schema_error() {
        assert!(matches!(parse("{}"), Err(ParseError::Schema(_))));
        let err = parse("{\"suite\": \"other\", \"mode\": \"quick\", \"metrics\": []}");
        assert!(matches!(err, Err(ParseError::Schema(_))));
        let err = parse(
            "{\"suite\": \"sim_throughput\", \"mode\": \"quick\", \
             \"metrics\": [{\"name\": \"lu\"}]}",
        );
        assert!(err.unwrap_err().to_string().contains("refs"));
    }

    #[test]
    fn parser_handles_escapes_and_numbers() {
        let text = "{\"suite\": \"sim_throughput\", \"mode\": \"a\\\"b\\u0041\", \
                    \"metrics\": [{\"name\": \"x\", \"refs\": 1e3, \
                    \"refs_per_sec\": -2.5, \"execution_cycles\": 7}]}";
        let d = parse(text).unwrap();
        assert_eq!(d.mode, "a\"bA");
        assert_eq!(d.metrics[0].refs, 1000);
        assert_eq!(d.metrics[0].refs_per_sec, -2.5);
    }
}
