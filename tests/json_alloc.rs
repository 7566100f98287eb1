//! Decoding a hostile body costs about its own length. A test binary of
//! its own, so that its counting allocator sees only this test.

mod counting;

#[global_allocator]
static ALLOC: counting::Counting = counting::Counting;

/// A `MAX_BODY`-sized (4 MiB) unauthenticated body, decoded the way the
/// scheduler's routes decode one.
#[test]
fn a_4_mib_body_decodes_within_twice_its_length() {
    let zeros = 2 << 20;
    let bytes = format!("{{\"worker\":1,\"x\":[{}0]}}", "0,".repeat(zeros - 1)).into_bytes();
    let (decoded, calls, used) = counting::counted(|| {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let worker = pas_server::json::find_u64(&text, "worker");
        let register = pas_dist::Register::from_json(&text);
        let x = pas_obs::json::parse(&text).and_then(|doc| doc.get("x"));
        (worker, register, x.map(|x| x.items().count()))
    });
    assert_eq!(decoded, (Some(1), None, Some(zeros)));
    assert!(
        used <= 2 * bytes.len(),
        "decoding allocated {used} bytes in {calls} calls"
    );
}
