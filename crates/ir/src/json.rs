//! Minimal JSON field extraction (there is no serde in the workspace).
//!
//! The bench emission (`results/BENCH_fieldops.json`) is machine-written
//! with `"key": value` rows and no braces or brackets inside strings,
//! which is all these helpers assume. They read that file for the
//! [`CostModel`](crate::CostModel) and for the bench-regression gate
//! manifest.

/// The string value of `"key": "…"` in a flat JSON object body.
pub fn json_str_field(obj: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let after = &obj[obj.find(&pat)? + pat.len()..];
    let start = after.find('"')? + 1;
    let end = start + after[start..].find('"')?;
    Some(after[start..end].to_string())
}

/// The numeric value of `"key": …` in a flat JSON object body.
pub fn json_num_field(obj: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let after = &obj[obj.find(&pat)? + pat.len()..];
    let end = after.find([',', '}', ']']).unwrap_or(after.len());
    after[..end].trim().parse().ok()
}

/// The bracketed contents of `"key": [ ... ]` (without the brackets).
pub fn json_array_block<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let after = &text[text.find(&pat)? + pat.len()..];
    let open = after.find('[')?;
    let mut depth = 0usize;
    for (i, b) in after.bytes().enumerate().skip(open) {
        match b {
            b'[' => depth += 1,
            b']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&after[open + 1..i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Top-level `{ ... }` objects inside an array block. A `}` with no
/// open object is skipped.
pub fn json_objects(block: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, b) in block.bytes().enumerate() {
        match b {
            b'{' => {
                if depth == 0 {
                    start = i;
                }
                depth += 1;
            }
            b'}' if depth > 0 => {
                depth -= 1;
                if depth == 0 {
                    out.push(&block[start..=i]);
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_objects_of_an_array() {
        let text =
            r#"{"rows": [ {"curve": "BN254N", "n": 32}, {"curve": "X", "n": 1.5} ], "z": 0}"#;
        let objs = json_objects(json_array_block(text, "rows").unwrap());
        assert_eq!(objs.len(), 2);
        assert_eq!(json_str_field(objs[0], "curve").as_deref(), Some("BN254N"));
        assert_eq!(json_num_field(objs[1], "n"), Some(1.5));
        assert_eq!(json_num_field(objs[1], "missing"), None);
        assert!(json_array_block(text, "missing").is_none());
        // A stray closing brace must neither panic nor open an object.
        assert_eq!(json_objects("} {\"a\": 1}"), vec!["{\"a\": 1}"]);
    }
}
