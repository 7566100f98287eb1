//! Top-level field lookups on a JSON object body, over
//! [`pas_obs::json::parse`]. Code that reads more than one field parses
//! once and uses the view directly.

/// `"key": <unsigned int>` of a JSON object body.
pub fn find_u64(json: &str, key: &str) -> Option<u64> {
    pas_obs::json::parse(json)?.get(key)?.as_u64()
}

/// `"key": true|false` of a JSON object body.
pub fn find_bool(json: &str, key: &str) -> Option<bool> {
    pas_obs::json::parse(json)?.get(key)?.as_bool()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scanners_decode_flat_envelopes() {
        let body = "{\"id\":42,\"phase\":\"running\",\"ok\":true,\"drain\":false,\
                    \"nested\":{\"deep\":7},\"neg\":-1}";
        assert_eq!(find_u64(body, "id"), Some(42));
        assert_eq!(find_u64(body, "missing"), None);
        assert_eq!(find_u64(body, "deep"), None, "top level only");
        assert_eq!(find_u64(body, "neg"), None);
        assert_eq!(find_bool(body, "ok"), Some(true));
        assert_eq!(find_bool(body, "drain"), Some(false));
        assert_eq!(find_bool(body, "id"), None);
        assert_eq!(find_u64("{\"id\":42", "id"), None, "not JSON");
    }
}
