//! Reading and writing `BENCH_SIM.json` result documents.
//!
//! The document grammar (schema) lives here, and [`ParseError`] is shared
//! with the digest document ([`crate::digests`]); the JSON mechanics — escaping,
//! rendering, the typed-error parser — are the shared
//! [`refrint_engine::json`] module, so the bench suite, the CLI and
//! `refrint-serve` all speak through one implementation.

use std::fmt;

use refrint_engine::json::{escape, JsonError, Value};

use crate::throughput::Measurement;

/// Renders one entry per scenario, in suite order, as pretty-printed JSON.
#[must_use]
pub fn render(metrics: &[Measurement]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"suite\": \"sim_throughput\",\n  \"metrics\": [\n");
    for (i, m) in metrics.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"refs\": {}, \"execution_cycles\": {}}}{}\n",
            escape(&m.name),
            m.refs,
            m.execution_cycles,
            if i + 1 < metrics.len() { "," } else { "" }
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
    /// The JSON is valid but not the expected document.
    Schema(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Syntax { offset, reason } => {
                write!(f, "malformed JSON at byte {offset}: {reason}")
            }
            ParseError::Schema(reason) => write!(f, "unexpected document shape: {reason}"),
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

/// Parses a results document into its entries, in document order.
///
/// # Errors
///
/// Returns [`ParseError::Syntax`] for malformed JSON and
/// [`ParseError::Schema`] for valid JSON that is not a `sim_throughput`
/// document.
pub fn parse(text: &str) -> Result<Vec<Measurement>, ParseError> {
    let root = refrint_engine::json::parse(text)?;

    let suite = root
        .get("suite")
        .and_then(Value::as_str)
        .ok_or_else(|| ParseError::Schema("missing \"suite\"".to_owned()))?;
    if suite != "sim_throughput" {
        return Err(ParseError::Schema(format!("unknown suite \"{suite}\"")));
    }
    let Some(Value::Arr(metrics)) = root.get("metrics") else {
        return Err(ParseError::Schema("missing \"metrics\" array".to_owned()));
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
            execution_cycles: field("execution_cycles")? as u64,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> Vec<Measurement> {
        vec![
            Measurement {
                name: "lu".to_owned(),
                refs: 32_000,
                execution_cycles: 987_654,
            },
            Measurement {
                name: "fft".to_owned(),
                refs: 32_000,
                execution_cycles: 123,
            },
        ]
    }

    #[test]
    fn render_parse_round_trip() {
        let m = metrics();
        assert_eq!(parse(&render(&m)).unwrap(), m);
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
        let err = parse("{\"suite\": \"other\", \"metrics\": []}");
        assert!(matches!(err, Err(ParseError::Schema(_))));
        let err = parse("{\"suite\": \"sim_throughput\", \"metrics\": [{\"name\": \"lu\"}]}");
        assert!(err.unwrap_err().to_string().contains("refs"));
    }

    #[test]
    fn parser_handles_escapes_and_numbers() {
        let text = "{\"suite\": \"sim_throughput\", \
                    \"metrics\": [{\"name\": \"a\\\"b\\u0041\", \"refs\": 1e3, \
                    \"execution_cycles\": 7}]}";
        let m = parse(text).unwrap();
        assert_eq!(m[0].name, "a\"bA");
        assert_eq!(m[0].refs, 1000);
        assert_eq!(m[0].execution_cycles, 7);
    }
}
