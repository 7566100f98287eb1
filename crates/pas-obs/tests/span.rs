//! The [`pas_obs::span`] guard's contract: under every switch setting it
//! feeds exactly the enabled sinks, each once, whether it closes by drop,
//! by `finish` or by panic unwind; an explicit parent wins over the
//! ambient context; and children entering its context nest under it.
//!
//! The switches are process-global, so every test holds one lock.

use pas_obs::{profile, trace};
use std::sync::{Mutex, MutexGuard};

static SWITCHES: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    SWITCHES.lock().unwrap_or_else(|e| e.into_inner())
}

/// Calls recorded on the top-level profile path `region`.
fn region_calls(region: &str) -> u64 {
    let entries = profile::snapshot();
    entries
        .iter()
        .find(|e| e.stack == [region])
        .map_or(0, |e| e.calls)
}

fn histogram_count(name: &str) -> u64 {
    pas_obs::global()
        .histogram(name, &[], pas_obs::US_BUCKETS)
        .count()
}

#[test]
fn every_switch_setting_feeds_exactly_the_enabled_sinks_once() {
    let _l = lock();
    for combo in 0..24u8 {
        let (enabled, tracing, profiling) = (combo & 1 != 0, combo & 2 != 0, combo & 4 != 0);
        let region: &'static str = Box::leak(format!("guard.{combo}").into_boxed_str());
        let metric = format!("pas.test.guard.{combo}.microseconds");
        let (trace_id, parent) = (trace::mint_id(), trace::mint_id());
        let open = || {
            let g = pas_obs::span(region).labels(&[("k", "v")]);
            g.histogram(&metric, &[])
        };

        pas_obs::set_enabled(enabled);
        trace::set_tracing(tracing);
        profile::set_profiling(profiling);
        {
            let _ctx = trace::enter(trace_id, parent);
            match combo / 8 {
                0 => drop(open()),
                1 => assert!(open().finish() >= 0.0),
                _ => assert!(std::panic::catch_unwind(|| {
                    let _g = open();
                    panic!("unwinding through an open guard");
                })
                .is_err()),
            }
        }
        pas_obs::set_enabled(true);
        trace::set_tracing(true);
        profile::set_profiling(true);

        let want = |on: bool| u64::from(enabled && on);
        assert_eq!(region_calls(region), want(profiling), "{region}: region");
        assert_eq!(histogram_count(&metric), want(true), "{region}: histogram");
        let spans = trace::spans_for(trace_id);
        assert_eq!(spans.len() as u64, want(tracing), "{region}: span");
        for s in spans {
            assert_eq!((s.name.as_str(), s.parent), (region, parent));
            assert_eq!(s.labels, [("k".to_string(), "v".to_string())]);
        }
    }
}

#[test]
fn explicit_parent_wins_over_ambient_context() {
    let _l = lock();
    let (ambient, explicit) = (trace::mint_id(), trace::mint_id());
    {
        let _ctx = trace::enter(ambient, 7);
        drop(pas_obs::span("guard.parent").parent(explicit, 9));
        // Trace id 0, an untraced grant, records nothing.
        let untraced = pas_obs::span("guard.untraced").parent(0, 9);
        assert_eq!(untraced.ctx(), None);
    }
    assert!(trace::spans_for(ambient).is_empty());
    let spans = trace::spans_for(explicit);
    let got: Vec<_> = spans.iter().map(|s| (s.name.as_str(), s.parent)).collect();
    assert_eq!(got, [("guard.parent", 9)]);
}

#[test]
fn children_entering_the_guard_context_nest_under_it() {
    let _l = lock();
    let tr = trace::mint_id();
    let outer = pas_obs::span("guard.outer").parent(tr, 0);
    let (ctx_trace, outer_id) = outer.ctx().expect("a traced guard has a context");
    {
        let _ctx = trace::enter(ctx_trace, outer_id);
        drop(pas_obs::span("guard.inner"));
    }
    drop(outer);
    let spans = trace::spans_for(tr);
    let find = |name| spans.iter().find(|s| s.name == name).unwrap();
    let (outer, inner) = (find("guard.outer"), find("guard.inner"));
    assert_eq!((outer.span, outer.parent), (outer_id, 0));
    assert_eq!(inner.parent, outer.span);
    assert!(inner.dur_us <= outer.dur_us);
    let nested = ["guard.outer", "guard.inner"];
    assert!(profile::snapshot()
        .iter()
        .any(|e| e.stack == nested && e.calls == 1));
}

#[test]
fn span_since_keeps_its_start_and_id_and_enters_no_region() {
    let _l = lock();
    let (tr, id) = (trace::mint_id(), trace::mint_id());
    let start_us = trace::now_us() - 5_000;
    let us = pas_obs::span_since("guard.since", start_us)
        .with_id(id)
        .parent(tr, 0)
        .histogram("pas.test.guard.since.microseconds", &[])
        .finish();
    assert!(us >= 5_000.0, "elapsed counts from the stamped start: {us}");
    let spans = trace::spans_for(tr);
    let got: Vec<_> = spans.iter().map(|s| (s.span, s.start_us)).collect();
    assert_eq!(got, [(id, start_us)]);
    assert!(spans[0].dur_us >= 5_000);
    assert_eq!(histogram_count("pas.test.guard.since.microseconds"), 1);
    assert_eq!(region_calls("guard.since"), 0);
}
