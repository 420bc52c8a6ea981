//! Golden test for the paper's Fig 6: the `sequence_trace` example's
//! scenario must render, byte for byte, the committed message sequence,
//! and its JSON Lines dump must carry the same events.

#[path = "../examples/sequence_trace.rs"]
mod sequence_trace;

const GOLDEN: &str = include_str!("fixtures/fig6_sequence.txt");

#[test]
fn fig6_render_matches_golden_output() {
    let sim = sequence_trace::fig6();
    let log = sim.log().expect("the scenario enables the log");
    assert_eq!(sequence_trace::report(log), GOLDEN);
}

#[test]
fn fig6_jsonl_has_one_line_per_event() {
    let sim = sequence_trace::fig6();
    let log = sim.log().expect("the scenario enables the log");
    let mut out = Vec::new();
    log.write_jsonl(&mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 21, "one line per rendered row of Fig 6");
    assert_eq!(
        lines[0],
        r#"{"t_ps":0,"kind":"MsgSent","from":0,"to":1,"msg":"FORWARD","downstream":true}"#
    );
    assert_eq!(
        lines[20],
        r#"{"t_ps":5781465000,"kind":"MsgSent","from":2,"to":3,"msg":"COMPLETE","downstream":true}"#
    );
    // Every line is a well-formed object naming its event's time and kind.
    for (line, (at, event)) in lines.iter().zip(log.events()) {
        let json = qn_bench::Json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(
            json.get("t_ps").and_then(|v| v.as_f64()),
            Some(at.as_ps() as f64)
        );
        assert_eq!(
            json.get("kind").and_then(|v| v.as_str()),
            Some(event.kind())
        );
    }
}
