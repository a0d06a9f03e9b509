//! Known-clean fixture: saturated with decoys — every banned construct
//! appears in comments, strings, raw strings, or test modules, and the
//! analyzer must report nothing at all on it.

// .unwrap() .expect("x") panic!("boom") unreachable!() todo!()
// Instant::now() SystemTime::now() HashMap HashSet RandomState unsafe #[ignore]
/* nested /* block */ with counter("decoy.name") and self.a.lock() */

fn strings() -> (&'static str, &'static str, &'static [u8]) {
    let s = "x.unwrap(); panic!(); let m: HashMap<u8,u8>; unsafe {}";
    let r = r##"r#"nested raw"# with .expect("y") and #[ignore]"##;
    let b = br#"bytes with SystemTime::now() and v[i]"#;
    (s, r, b)
}

fn lifetimes_are_not_chars<'a>(x: &'a str) -> &'a str {
    let c = '\''; // escaped char literal, not a lifetime
    let d = 'z';
    if c == d {
        x
    } else {
        x
    }
}

fn honest_code(v: &[u32]) -> Option<u32> {
    let first = v.first().copied()?;
    let mut m = std::collections::BTreeMap::new();
    m.insert(first, ());
    m.keys().next().copied()
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_do_anything() {
        let x: Option<u32> = Some(1);
        assert_eq!(x.unwrap(), 1);
        let mut m = std::collections::HashMap::new();
        m.insert(1u8, 2u8);
        let _t = std::time::Instant::now();
    }
}

fn after_tests_still_clean(v: &[u32]) -> Option<&u32> {
    v.first()
}
