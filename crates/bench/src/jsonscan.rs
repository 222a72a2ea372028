//! Minimal field scanner for the bench harness's own JSON output.
//!
//! The offline build has no JSON library, and the only JSON this repo needs
//! to *read back* is JSON it wrote itself (the `islands-sweep/1` document
//! the smoke test checks, the obs scrape lines), which is emitted
//! one object per line with top-level fields before any nested object.
//! Under that discipline, scanning for the **first** occurrence of `"key":`
//! in a line is exact — this is not a JSON parser and must not be pointed at
//! foreign documents.

/// The raw text following `"key":` in `line`, up to the next delimiter
/// (`,`, `}`, `]`) at top level of the value. Strings return their unquoted
/// body (our formats never embed quotes in values).
fn raw_value<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = line[start..].trim_start();
    if let Some(stripped) = rest.strip_prefix('"') {
        let end = stripped.find('"')?;
        Some(&stripped[..end])
    } else {
        let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
        Some(rest[..end].trim_end())
    }
}

/// Numeric field `key` of a one-line JSON object.
pub fn num_field(line: &str, key: &str) -> Option<f64> {
    raw_value(line, key)?.parse().ok()
}

/// Integer field `key` of a one-line JSON object.
pub fn int_field(line: &str, key: &str) -> Option<i64> {
    // Integers may have been written as floats (throughput rounding).
    let raw = raw_value(line, key)?;
    raw.parse::<i64>().ok().or_else(|| {
        raw.parse::<f64>()
            .ok()
            .filter(|f| f.fract() == 0.0)
            .map(|f| f as i64)
    })
}

/// String field `key` of a one-line JSON object.
pub fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    raw_value(line, key)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = r#"{"granularity":"island","instances":4,"multisite_pct":20,"sites":0,"skew":0.5,"throughput_tps":6606.6,"clean":true,"local":{"committed":9}}"#;

    #[test]
    fn scans_typed_fields() {
        assert_eq!(str_field(LINE, "granularity"), Some("island"));
        assert_eq!(int_field(LINE, "instances"), Some(4));
        assert_eq!(num_field(LINE, "multisite_pct"), Some(20.0));
        assert_eq!(num_field(LINE, "skew"), Some(0.5));
        assert_eq!(num_field(LINE, "throughput_tps"), Some(6606.6));
        assert_eq!(str_field(LINE, "clean"), Some("true"));
    }

    #[test]
    fn first_occurrence_wins_for_nested_duplicates() {
        // "committed" also exists inside the nested object; a top-level
        // "committed" written before it must shadow the nested one.
        let line = r#"{"committed":42,"local":{"committed":9}}"#;
        assert_eq!(int_field(line, "committed"), Some(42));
    }

    #[test]
    fn missing_keys_are_none() {
        assert_eq!(num_field(LINE, "absent"), None);
        assert_eq!(str_field("not json at all", "granularity"), None);
    }
}
