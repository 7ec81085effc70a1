//! Exporters: Chrome-trace JSON for span trees, JSON/CSV metrics
//! dumps, and a dependency-free JSON validity checker.

use crate::recorder::Recorder;
use std::fmt::Write as _;

/// Renders the recorder's spans as Chrome-trace (Perfetto) JSON:
/// `{"traceEvents": [...]}` with one complete (`"ph": "X"`) event per
/// span — `ts`/`dur` are simulated cycles (nominally microseconds to
/// the viewer) — preceded by `thread_name` metadata for every named
/// track. Output is deterministic: events appear in recording order.
pub fn chrome_trace_json(rec: &Recorder) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    let mut first = true;
    let mut push = |out: &mut String, ev: &str| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str("  ");
        out.push_str(ev);
    };
    let mut named: Vec<(u32, &str)> = rec
        .track_names()
        .iter()
        .map(|(t, n)| (*t, n.as_str()))
        .collect();
    if !named.iter().any(|(t, _)| *t == crate::TRACK_ENGINE)
        && rec.spans().iter().any(|s| s.track == crate::TRACK_ENGINE)
    {
        named.insert(0, (crate::TRACK_ENGINE, "engine"));
    }
    for (track, name) in named {
        push(
            &mut out,
            &format!(
                "{{\"ph\": \"M\", \"pid\": 0, \"tid\": {track}, \"name\": \"thread_name\", \
                 \"args\": {{\"name\": {}}}}}",
                json_string(name)
            ),
        );
    }
    for s in rec.spans() {
        let mut args = String::new();
        for (i, (k, v)) in s.args.iter().enumerate() {
            if i > 0 {
                args.push_str(", ");
            }
            let _ = write!(args, "{}: {v}", json_string(k));
        }
        push(
            &mut out,
            &format!(
                "{{\"ph\": \"X\", \"pid\": 0, \"tid\": {}, \"ts\": {}, \"dur\": {}, \
                 \"name\": {}, \"args\": {{{args}}}}}",
                s.track,
                s.start,
                s.cycles(),
                json_string(s.name)
            ),
        );
    }
    out.push_str("\n]}\n");
    out
}

/// Renders the metrics registry as JSON with sorted keys:
/// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`.
pub fn metrics_json(rec: &Recorder) -> String {
    let m = rec.metrics();
    let mut out = String::from("{\n  \"counters\": {");
    let mut first = true;
    for (name, v) in m.counters() {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\n    {}: {v}", json_string(name));
    }
    out.push_str(if first { "},\n" } else { "\n  },\n" });
    out.push_str("  \"gauges\": {");
    first = true;
    for (name, samples) in m.gauges() {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\n    {}: [", json_string(name));
        for (i, (cycle, v)) in samples.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "[{cycle}, {}]", json_f64(*v));
        }
        out.push(']');
    }
    out.push_str(if first { "},\n" } else { "\n  },\n" });
    out.push_str("  \"histograms\": {");
    first = true;
    for (name, h) in m.histograms() {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "\n    {}: {{\"count\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}}",
            json_string(name),
            h.count,
            h.p50,
            h.p95,
            h.p99,
            h.max
        );
    }
    out.push_str(if first { "}\n" } else { "\n  }\n" });
    out.push_str("}\n");
    out
}

/// Renders the metrics registry as CSV with a fixed
/// `kind,name,key,value` header. Counters use an empty key, gauge rows
/// carry their sample cycle, histograms emit one row per summary stat.
pub fn metrics_csv(rec: &Recorder) -> String {
    let m = rec.metrics();
    let mut out = String::from("kind,name,key,value\n");
    for (name, v) in m.counters() {
        let _ = writeln!(out, "counter,{name},,{v}");
    }
    for (name, samples) in m.gauges() {
        for (cycle, v) in samples {
            let _ = writeln!(out, "gauge,{name},{cycle},{}", json_f64(*v));
        }
    }
    for (name, h) in m.histograms() {
        let _ = writeln!(out, "histogram,{name},count,{}", h.count);
        let _ = writeln!(out, "histogram,{name},p50,{}", h.p50);
        let _ = writeln!(out, "histogram,{name},p95,{}", h.p95);
        let _ = writeln!(out, "histogram,{name},p99,{}", h.p99);
        let _ = writeln!(out, "histogram,{name},max,{}", h.max);
    }
    out
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

fn json_f64(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value");
    format!("{v}")
}

/// Checks that `s` is one complete, syntactically valid JSON value —
/// the in-binary assert `exp_profile` runs over every export (no JSON
/// library is vendored, so exporters are hand-rolled and this is the
/// independent check against malformed output).
pub fn validate_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(b, &mut pos);
    parse_value(b, &mut pos, 0)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(())
}

const MAX_DEPTH: usize = 64;

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    if depth > MAX_DEPTH {
        return Err("nesting too deep".into());
    }
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos, depth),
        Some(b'[') => parse_array(b, pos, depth),
        Some(b'"') => parse_string(b, pos),
        Some(b't') => parse_literal(b, pos, "true"),
        Some(b'f') => parse_literal(b, pos, "false"),
        Some(b'n') => parse_literal(b, pos, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte {c:#04x} at offset {pos}")),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    *pos += 1; // '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at offset {pos}"));
        }
        *pos += 1;
        skip_ws(b, pos);
        parse_value(b, pos, depth + 1)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    *pos += 1; // '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        parse_value(b, pos, depth + 1)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at offset {pos}")),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at offset {pos}"));
    }
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        if b.len() < *pos + 5
                            || !b[*pos + 1..*pos + 5].iter().all(u8::is_ascii_hexdigit)
                        {
                            return Err(format!("bad \\u escape at offset {pos}"));
                        }
                        *pos += 5;
                    }
                    _ => return Err(format!("bad escape at offset {pos}")),
                }
            }
            c if c < 0x20 => return Err(format!("raw control byte in string at offset {pos}")),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".into())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |b: &[u8], pos: &mut usize| {
        let s = *pos;
        while pos_digit(b, *pos) {
            *pos += 1;
        }
        *pos > s
    };
    if !digits(b, pos) {
        return Err(format!("bad number at offset {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(b, pos) {
            return Err(format!("bad fraction at offset {start}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(b, pos) {
            return Err(format!("bad exponent at offset {start}"));
        }
    }
    Ok(())
}

fn pos_digit(b: &[u8], pos: usize) -> bool {
    b.get(pos).is_some_and(u8::is_ascii_digit)
}

fn parse_literal(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at offset {pos}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{SpanDetail, TelemetryConfig};

    fn sample_recorder() -> Recorder {
        let mut r = Recorder::new(TelemetryConfig::default());
        r.begin(SpanDetail::Layers, "inference");
        r.begin_arg(SpanDetail::Phases, "matmul", "i", 1);
        r.advance(12);
        r.annotate("host_ns", 340);
        r.end(SpanDetail::Phases);
        r.end(SpanDetail::Layers);
        r.record_span(5, "request", 0, 9, vec![("req", 3)]);
        r.set_track_name(5, "requests");
        r.counter_add("mem.calls", 2);
        r.gauge_sample("queue", 100, 1.5);
        r.hist_record("lat", 4);
        r.hist_record("lat", 8);
        r
    }

    #[test]
    fn exports_are_valid_json() {
        let r = sample_recorder();
        let trace = chrome_trace_json(&r);
        validate_json(&trace).expect("chrome trace parses");
        assert!(trace.contains("\"name\": \"matmul\""));
        assert!(trace.contains("\"dur\": 12"));
        assert!(trace.contains("\"host_ns\": 340"));
        assert!(trace.contains("thread_name"));
        let metrics = metrics_json(&r);
        validate_json(&metrics).expect("metrics json parses");
        assert!(metrics.contains("\"mem.calls\": 2"));
        assert!(metrics.contains("[100, 1.5]"));
        assert!(metrics.contains("\"p50\": 4"));
    }

    #[test]
    fn empty_recorder_exports_parse() {
        let r = Recorder::new(TelemetryConfig::default());
        validate_json(&chrome_trace_json(&r)).unwrap();
        validate_json(&metrics_json(&r)).unwrap();
    }

    #[test]
    fn csv_has_fixed_header_and_rows() {
        let csv = metrics_csv(&sample_recorder());
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines[0], "kind,name,key,value");
        assert!(lines.contains(&"counter,mem.calls,,2"));
        assert!(lines.contains(&"gauge,queue,100,1.5"));
        assert!(lines.contains(&"histogram,lat,p50,4"));
    }

    #[test]
    fn validator_rejects_malformed_json() {
        for bad in [
            "",
            "{",
            "{\"a\": }",
            "[1, 2,]",
            "{\"a\": 1} extra",
            "\"unterminated",
            "01x",
            "{\"a\" 1}",
            "nulle",
        ] {
            assert!(validate_json(bad).is_err(), "accepted: {bad:?}");
        }
        for good in [
            "null",
            "-1.5e-3",
            "[]",
            "{}",
            "{\"a\": [1, {\"b\": \"c\\n\"}, true, false, null]}",
            "  42  ",
        ] {
            validate_json(good).unwrap_or_else(|e| panic!("rejected {good:?}: {e}"));
        }
    }
}
