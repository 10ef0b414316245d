//! Chrome/Perfetto `trace_events` JSON export and its round-trip parser.
//!
//! Spans are exported as complete (`"ph":"X"`) events in the JSON object
//! format, loadable directly in `ui.perfetto.dev` or `chrome://tracing`.
//! The two clock domains get separate synthetic processes so they never
//! share a timeline: pid 1 carries wall-clock stages (timestamps in real
//! microseconds) and pid 2 carries simulated-cycle phases (one "µs" per
//! cycle — the unit label is wrong by design, the viewer has no cycle
//! unit, but relative widths are exact).
//!
//! The parser exists so tests and the `qoa-prof --check` mode can verify a
//! just-written trace independently of the exporter's string formatting:
//! export → parse → compare is the round-trip contract.

use crate::span::{Clock, SpanEvent};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Synthetic process id for the wall-clock track.
const WALL_PID: i64 = 1;
/// Synthetic process id for the simulated-cycle track.
const CYCLES_PID: i64 = 2;

/// Renders spans as a Chrome/Perfetto `trace_events` JSON object.
pub fn export_trace(spans: &[SpanEvent]) -> String {
    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(&format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{WALL_PID},\"tid\":1,\
         \"args\":{{\"name\":\"wall clock (us)\"}}}},\n"
    ));
    out.push_str(&format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{CYCLES_PID},\"tid\":1,\
         \"args\":{{\"name\":\"simulated cycles\"}}}}"
    ));
    for span in spans {
        out.push_str(",\n{\"name\":");
        json::encode_str(&mut out, &span.name);
        let _ = write!(out, ",\"cat\":\"{}\",\"ph\":\"X\",", span.clock.label());
        match span.clock {
            Clock::Wall => {
                // Wall spans are stored in ns; ts/dur are µs with ns
                // precision kept in the fraction, so parsing restores the
                // exact nanosecond values.
                let _ = write!(
                    out,
                    "\"ts\":{:.3},\"dur\":{:.3},",
                    span.start as f64 / 1000.0,
                    span.dur as f64 / 1000.0
                );
            }
            Clock::Cycles => {
                let _ = write!(out, "\"ts\":{},\"dur\":{},", span.start, span.dur);
            }
        }
        let pid = match span.clock {
            Clock::Wall => WALL_PID,
            Clock::Cycles => CYCLES_PID,
        };
        let _ = write!(out, "\"pid\":{pid},\"tid\":1");
        if let Some(line) = span.line {
            let _ = write!(out, ",\"args\":{{\"line\":{line}}}");
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

/// Parses a trace produced by [`export_trace`] (or any `trace_events`
/// JSON whose `X` events follow the same pid convention) back into spans.
///
/// Metadata (`M`) events are validated and skipped. Returns a descriptive
/// error for anything malformed — this is the validation path behind
/// `qoa-prof --check`.
///
/// # Errors
///
/// Returns a message describing the first structural problem found.
pub fn parse_trace(text: &str) -> Result<Vec<SpanEvent>, String> {
    let value = json::parse(text)?;
    let events = match &value {
        json::Value::Object(map) => match map.get("traceEvents") {
            Some(json::Value::Array(events)) => events,
            Some(_) => return Err("traceEvents is not an array".into()),
            None => return Err("missing traceEvents key".into()),
        },
        json::Value::Array(events) => events,
        _ => return Err("trace JSON must be an object or an array".into()),
    };
    let mut spans = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let json::Value::Object(ev) = ev else {
            return Err(format!("event {i} is not an object"));
        };
        let ph = ev
            .get("ph")
            .and_then(json::Value::as_str)
            .ok_or_else(|| format!("event {i} has no ph"))?;
        match ph {
            "M" => continue,
            "X" => {}
            other => return Err(format!("event {i} has unsupported ph {other:?}")),
        }
        let name = ev
            .get("name")
            .and_then(json::Value::as_str)
            .ok_or_else(|| format!("event {i} has no name"))?;
        let pid = ev
            .get("pid")
            .and_then(json::Value::as_i64)
            .ok_or_else(|| format!("event {i} has no pid"))?;
        let ts = ev
            .get("ts")
            .and_then(json::Value::as_f64)
            .ok_or_else(|| format!("event {i} has no ts"))?;
        let dur = ev
            .get("dur")
            .and_then(json::Value::as_f64)
            .ok_or_else(|| format!("event {i} has no dur"))?;
        if ts < 0.0 || dur < 0.0 {
            return Err(format!("event {i} has negative timestamps"));
        }
        let clock = match pid {
            WALL_PID => Clock::Wall,
            CYCLES_PID => Clock::Cycles,
            other => return Err(format!("event {i} has unknown pid {other}")),
        };
        let (start, dur) = match clock {
            // µs back to ns.
            Clock::Wall => ((ts * 1000.0).round() as u64, (dur * 1000.0).round() as u64),
            Clock::Cycles => (ts.round() as u64, dur.round() as u64),
        };
        let line = match ev.get("args") {
            Some(json::Value::Object(args)) => match args.get("line") {
                Some(v) => {
                    let n = v
                        .as_i64()
                        .filter(|n| (1..=i64::from(u32::MAX)).contains(n))
                        .ok_or_else(|| format!("event {i} has non-integer args.line"))?;
                    Some(n as u32)
                }
                None => None,
            },
            Some(_) => return Err(format!("event {i} args is not an object")),
            None => None,
        };
        spans.push(SpanEvent { name: Cow::Owned(name.to_string()), clock, start, dur, line });
    }
    Ok(spans)
}

/// The stack's one JSON codec: a parser for the full value grammar plus
/// the string encoder every hand-rendered JSON line uses. It lives in
/// this leaf crate so everything above it shares it: the trace
/// round-trip check here, and in `qoa-core` the run journal and the
/// benchsnap reader.
pub mod json {
    use std::collections::BTreeMap;
    use std::fmt::Write as _;

    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// A number token with no `.`, `e` or `E` that fits in `i64`,
        /// kept exact.
        Int(i64),
        /// Any other number (parsed as f64).
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Array(Vec<Value>),
        /// An object.
        Object(BTreeMap<String, Value>),
    }

    impl Value {
        /// The contained string, if this is a [`Value::Str`].
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The contained number (an [`Value::Int`] widens).
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Int(v) => Some(*v as f64),
                Value::Num(v) => Some(*v),
                _ => None,
            }
        }

        /// The contained number as an integer, if it is one exactly.
        pub fn as_i64(&self) -> Option<i64> {
            match self {
                Value::Int(v) => Some(*v),
                Value::Num(v) if v.fract() == 0.0 && v.abs() < i64::MAX as f64 => {
                    Some(*v as i64)
                }
                _ => None,
            }
        }
    }

    /// Appends `s` to `out` as a quoted JSON string.
    pub fn encode_str(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// Parses one complete JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message locating the first syntax error.
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
    }

    fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
        if bytes.get(*pos) == Some(&b) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, *pos))
        }
    }

    fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b'{') => {
                *pos += 1;
                let mut map = BTreeMap::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Value::Object(map));
                }
                loop {
                    skip_ws(bytes, pos);
                    let key = match parse_value(bytes, pos)? {
                        Value::Str(s) => s,
                        _ => return Err(format!("object key at byte {} is not a string", *pos)),
                    };
                    skip_ws(bytes, pos);
                    expect(bytes, pos, b':')?;
                    let value = parse_value(bytes, pos)?;
                    map.insert(key, value);
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Value::Object(map));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(parse_value(bytes, pos)?);
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                    }
                }
            }
            Some(b'"') => parse_string(bytes, pos).map(Value::Str),
            Some(b't') => parse_lit(bytes, pos, "true", Value::Bool(true)),
            Some(b'f') => parse_lit(bytes, pos, "false", Value::Bool(false)),
            Some(b'n') => parse_lit(bytes, pos, "null", Value::Null),
            Some(_) => parse_number(bytes, pos),
            None => Err("unexpected end of input".into()),
        }
    }

    fn parse_lit(
        bytes: &[u8],
        pos: &mut usize,
        lit: &str,
        value: Value,
    ) -> Result<Value, String> {
        if bytes[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", *pos))
        }
    }

    fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < bytes.len()
            && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        {
            *pos += 1;
        }
        let token = std::str::from_utf8(&bytes[start..*pos])
            .map_err(|_| format!("invalid number at byte {start}"))?;
        if !token.contains(['.', 'e', 'E']) {
            if let Ok(v) = token.parse::<i64>() {
                return Ok(Value::Int(v));
            }
        }
        token
            .parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("invalid number {token:?} at byte {start}"))
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        *pos += 1; // opening quote
        let mut s = String::new();
        loop {
            let b = *bytes
                .get(*pos)
                .ok_or_else(|| "unterminated string".to_string())?;
            *pos += 1;
            match b {
                b'"' => return Ok(s),
                b'\\' => {
                    let esc = *bytes
                        .get(*pos)
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    *pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = bytes
                                .get(*pos..*pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            *pos += 4;
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("bad code point {code:#x}"))?,
                            );
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                b if b < 0x80 => s.push(b as char),
                _ => {
                    // Multi-byte UTF-8: find the full char in the source.
                    let rest = std::str::from_utf8(&bytes[*pos - 1..])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    let c = rest
                        .chars()
                        .next()
                        .ok_or_else(|| "unterminated string".to_string())?;
                    s.push(c);
                    *pos += c.len_utf8() - 1;
                }
            }
        }
    }
}

/// Groups parsed spans by `(clock, name)` — a convenience for tests and
/// the `--check` validator.
pub fn span_index(spans: &[SpanEvent]) -> BTreeMap<(&'static str, String), Vec<&SpanEvent>> {
    let mut map: BTreeMap<(&'static str, String), Vec<&SpanEvent>> = BTreeMap::new();
    for s in spans {
        map.entry((s.clock.label(), s.name.to_string())).or_default().push(s);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spans() -> Vec<SpanEvent> {
        vec![
            SpanEvent {
                name: "parse".into(),
                clock: Clock::Wall,
                start: 1_500,
                dur: 42_001,
                line: None,
            },
            SpanEvent { name: "compile".into(), clock: Clock::Wall, start: 43_501, dur: 7, line: None },
            SpanEvent {
                name: "Bytecode Interpreter".into(),
                clock: Clock::Cycles,
                start: 0,
                dur: 123_456,
                line: Some(12),
            },
            SpanEvent {
                name: "Garbage Collection (minor)".into(),
                clock: Clock::Cycles,
                start: 123_456,
                dur: 789,
                line: Some(7),
            },
        ]
    }

    #[test]
    fn export_parse_round_trips_exactly() {
        let spans = sample_spans();
        let json = export_trace(&spans);
        let back = parse_trace(&json).expect("parses");
        assert_eq!(back.len(), spans.len());
        for (a, b) in spans.iter().zip(&back) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.clock, b.clock);
            assert_eq!(a.start, b.start, "{}", a.name);
            assert_eq!(a.dur, b.dur, "{}", a.name);
            assert_eq!(a.line, b.line, "{}", a.name);
        }
    }

    #[test]
    fn exported_trace_matches_golden_shape() {
        let json = export_trace(&sample_spans());
        // Structural golden checks that pin the trace_events contract
        // without being hostage to whitespace.
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"name\":\"parse\""));
        assert!(json.contains("\"cat\":\"wall\""));
        assert!(json.contains("\"cat\":\"cycles\""));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"dur\":42.001"));
        // Line-tagged spans carry the guest line as a Perfetto arg;
        // untagged spans carry no args object at all.
        assert!(json.contains("\"args\":{\"line\":12}"));
        assert!(!json.contains("\"name\":\"parse\",\"cat\":\"wall\",\"args\""));
    }

    #[test]
    fn line_args_round_trip_and_validate() {
        let spans = sample_spans();
        let back = parse_trace(&export_trace(&spans)).expect("parses");
        let lines: Vec<Option<u32>> = back.iter().map(|s| s.line).collect();
        assert_eq!(lines, vec![None, None, Some(12), Some(7)]);
        // A non-integer args.line is a structural error, not a silent None.
        assert!(parse_trace(
            "{\"traceEvents\":[{\"ph\":\"X\",\"name\":\"a\",\"pid\":2,\"ts\":0,\"dur\":1,\
             \"args\":{\"line\":1.5}}]}"
        )
        .is_err());
        assert!(parse_trace(
            "{\"traceEvents\":[{\"ph\":\"X\",\"name\":\"a\",\"pid\":2,\"ts\":0,\"dur\":1,\
             \"args\":{\"line\":0}}]}"
        )
        .is_err());
    }

    #[test]
    fn parser_rejects_malformed_traces() {
        assert!(parse_trace("not json").is_err());
        assert!(parse_trace("{\"foo\":1}").is_err());
        assert!(parse_trace("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());
        assert!(parse_trace(
            "{\"traceEvents\":[{\"ph\":\"X\",\"name\":\"a\",\"pid\":9,\"ts\":0,\"dur\":1}]}"
        )
        .is_err());
        // Begin events (ph B) are unsupported by the round-trip contract.
        assert!(parse_trace(
            "{\"traceEvents\":[{\"ph\":\"B\",\"name\":\"a\",\"pid\":1,\"ts\":0}]}"
        )
        .is_err());
    }

    #[test]
    fn names_with_quotes_and_newlines_survive() {
        let spans = vec![SpanEvent {
            name: Cow::Owned("weird \"name\"\nwith\tescapes".to_string()),
            clock: Clock::Cycles,
            start: 5,
            dur: 6,
            line: None,
        }];
        let back = parse_trace(&export_trace(&spans)).expect("parses");
        assert_eq!(back[0].name, spans[0].name);
    }
}
