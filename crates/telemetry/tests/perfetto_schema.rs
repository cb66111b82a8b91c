//! Schema validation of the Chrome trace-event / Perfetto export.
//!
//! The workspace's `serde_json` shim only serialises, so these tests
//! carry a minimal recursive-descent JSON parser — enough to check the
//! exporter emits a *parseable* document of the right shape, not just a
//! string that contains the right substrings: a `traceEvents` array of
//! objects, every event `ph:"X"` or `ph:"M"`, complete events with
//! numeric `ts`/`dur` and `ts` monotonically non-decreasing within each
//! `tid` track, and metadata naming the process and every track.

use califorms_telemetry::perfetto::render_trace_json;
use califorms_telemetry::{Phase, SpanEvent};

// ---------------------------------------------------------------------
// Minimal JSON parser (objects, arrays, strings w/ escapes, f64 numbers,
// literals). Errors carry the byte offset so a schema break is findable.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn parse(src: &'a str) -> Result<Json, String> {
        let mut p = Parser {
            b: src.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(format!("trailing bytes at {}", p.i));
        }
        Ok(v)
    }

    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.b.get(self.i) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at {}", self.i))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut kv = Vec::new();
        self.ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Obj(kv));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.ws();
            self.expect(b':')?;
            let v = self.value()?;
            kv.push((k, v));
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(kv));
                }
                _ => return Err(format!("expected ',' or '}}' at {}", self.i)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at {}", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            self.i += 4;
                        }
                        _ => return Err(format!("bad escape at {}", self.i)),
                    }
                    self.i += 1;
                }
                Some(&c) => {
                    // Multi-byte UTF-8 passes through unchanged.
                    let len = match c {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let s = self
                        .b
                        .get(self.i..self.i + len)
                        .ok_or("truncated UTF-8 sequence")?;
                    out.push_str(std::str::from_utf8(s).map_err(|e| e.to_string())?);
                    self.i += len;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self
            .b
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at {start}"))
    }
}

// ---------------------------------------------------------------------
// Fixtures and schema assertions.
// ---------------------------------------------------------------------

fn ev(track: u32, phase: Phase, quantum: u64, start_ns: u64, dur_ns: u64) -> SpanEvent {
    SpanEvent {
        track,
        phase,
        quantum,
        start_ns,
        dur_ns,
    }
}

/// A two-core + runtime timeline, deliberately out of track/time order to
/// exercise the exporter's sort.
fn sample_events() -> Vec<SpanEvent> {
    vec![
        ev(1, Phase::Bound, 0, 2_500, 900),
        ev(0, Phase::Bound, 0, 1_234, 1_000),
        ev(2, Phase::Weave, 0, 4_000, 2_000),
        ev(0, Phase::Weave, 0, 2_234, 700),
        ev(1, Phase::Weave, 0, 3_400, 600),
        ev(0, Phase::Bound, 1, 7_000, 1_100),
        ev(2, Phase::Bound, 0, 1_000, 2_900),
        ev(1, Phase::Weave, 1, 8_000, 50),
    ]
}

fn sample_names() -> Vec<(u32, String)> {
    vec![
        (0, "core 0".to_string()),
        (1, "core 1".to_string()),
        (2, "runtime".to_string()),
    ]
}

fn parse_trace(json: &str) -> Json {
    Parser::parse(json).unwrap_or_else(|e| panic!("trace JSON must parse: {e}\n{json}"))
}

#[test]
fn document_parses_with_trace_events_array() {
    let doc = parse_trace(&render_trace_json(&sample_events(), &sample_names()));
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ns")
    );
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents is an array");
    // 1 process_name + 3 thread_name metadata + 8 complete events.
    assert_eq!(events.len(), 12);
}

#[test]
fn every_event_is_a_complete_or_metadata_record_with_required_fields() {
    let doc = parse_trace(&render_trace_json(&sample_events(), &sample_names()));
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("ph present");
        assert_eq!(e.get("pid").and_then(Json::as_num), Some(0.0));
        match ph {
            "M" => {
                let name = e.get("name").and_then(Json::as_str).unwrap();
                assert!(
                    name == "process_name" || name == "thread_name",
                    "metadata kind: {name}"
                );
                assert!(e.get("args").and_then(|a| a.get("name")).is_some());
            }
            "X" => {
                let name = e.get("name").and_then(Json::as_str).unwrap();
                assert!(["bound", "weave"].contains(&name), "phase name: {name}");
                assert_eq!(e.get("cat").and_then(Json::as_str), Some("phase"));
                assert!(e.get("ts").and_then(Json::as_num).is_some_and(|v| v >= 0.0));
                assert!(e
                    .get("dur")
                    .and_then(Json::as_num)
                    .is_some_and(|v| v >= 0.0));
                assert!(e.get("tid").and_then(Json::as_num).is_some());
                assert!(e
                    .get("args")
                    .and_then(|a| a.get("quantum"))
                    .and_then(Json::as_num)
                    .is_some());
            }
            other => panic!("unexpected ph {other:?}"),
        }
    }
}

#[test]
fn ts_is_monotonic_within_every_track() {
    let doc = parse_trace(&render_trace_json(&sample_events(), &sample_names()));
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let mut last_ts: Vec<(u32, f64)> = Vec::new();
    for e in events {
        if e.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let tid = e.get("tid").and_then(Json::as_num).unwrap() as u32;
        let ts = e.get("ts").and_then(Json::as_num).unwrap();
        match last_ts.iter_mut().find(|(t, _)| *t == tid) {
            Some((_, prev)) => {
                assert!(
                    ts >= *prev,
                    "track {tid}: ts {ts} went backwards from {prev}"
                );
                *prev = ts;
            }
            None => last_ts.push((tid, ts)),
        }
    }
    assert_eq!(last_ts.len(), 3, "complete events on every track");
}

#[test]
fn every_track_is_named_and_timestamps_keep_ns_precision() {
    let doc = parse_trace(&render_trace_json(&sample_events(), &sample_names()));
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let thread_names: Vec<(u32, String)> = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
        .map(|e| {
            (
                e.get("tid").and_then(Json::as_num).unwrap() as u32,
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string(),
            )
        })
        .collect();
    assert_eq!(thread_names, sample_names());

    // start_ns = 1234 must survive as 1.234 µs exactly.
    let ts: Vec<f64> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .map(|e| e.get("ts").and_then(Json::as_num).unwrap())
        .collect();
    assert!(
        ts.iter().any(|&t| (t - 1.234).abs() < 1e-9),
        "ns fraction lost: {ts:?}"
    );
}

#[test]
fn track_names_with_json_metacharacters_round_trip() {
    let names = vec![(0, "core \"zero\" \\ weave".to_string())];
    let doc = parse_trace(&render_trace_json(&[ev(0, Phase::Bound, 0, 0, 1)], &names));
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let name = events
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
        .and_then(|e| e.get("args"))
        .and_then(|a| a.get("name"))
        .and_then(Json::as_str)
        .expect("escaped track name parses");
    assert_eq!(name, "core \"zero\" \\ weave");
}

#[test]
fn metrics_json_of_a_report_parses_too() {
    use califorms_telemetry::{CounterRegistry, TelemetryReport};
    let mut reg = CounterRegistry::new();
    reg.add("weave.transactions", 0, 7);
    reg.add("dir.lookups", 3, 9);
    let report = TelemetryReport {
        counters: reg.snapshot(),
        ..TelemetryReport::default()
    };
    let doc = Parser::parse(&report.metrics_json()).expect("metrics JSON parses");
    assert_eq!(
        doc.get("counters")
            .and_then(|c| c.get("weave.transactions"))
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(1)
    );
    assert!(doc.get("host").and_then(|h| h.get("span_count")).is_some());
}
