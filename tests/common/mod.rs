//! Helpers shared by the root integration tests.

/// A report line with everything host- or clock-dependent removed: the
/// phase `ms` values and `total_ms` read 0, and the schedule detail's
/// ` (parallel width N)` suffix (present only on hosts with two or more
/// idle workers) is dropped.
pub fn strip_host_dependent(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    loop {
        let ms = rest.find("\"ms\": ");
        let total = rest.find("\"total_ms\": ");
        let width = rest.find(" (parallel width ");
        let Some((at, key)) = [
            ms.map(|i| (i, "\"ms\": ")),
            total.map(|i| (i, "\"total_ms\": ")),
            width.map(|i| (i, " (parallel width ")),
        ]
        .into_iter()
        .flatten()
        .min_by_key(|&(i, _)| i) else {
            out.push_str(rest);
            return out;
        };
        out.push_str(&rest[..at]);
        let after = &rest[at + key.len()..];
        if key.starts_with(' ') {
            rest = &after[after.find(')').expect("closed width note") + 1..];
        } else {
            out.push_str(key);
            out.push('0');
            rest = after.trim_start_matches(|c: char| c.is_ascii_digit() || c == '.');
        }
    }
}

#[test]
fn strip_host_dependent_drops_only_timing() {
    let line = "{\"phases\": [{\"name\": \"schedule\", \"ms\": 12.345, \"detail\": \
                \"3 machines (parallel width 2)\"}], \"total_ms\": 0.250, \"cost\": 7}";
    assert_eq!(
        strip_host_dependent(line),
        "{\"phases\": [{\"name\": \"schedule\", \"ms\": 0, \"detail\": \
         \"3 machines\"}], \"total_ms\": 0, \"cost\": 7}"
    );
}
