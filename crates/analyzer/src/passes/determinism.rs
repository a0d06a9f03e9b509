//! Pass `determinism`: results must not depend on wall clocks or hash
//! iteration order.
//!
//! PR 4's headline claim — `Threads(8)` produces **bit-identical** results
//! to the `Sequential` oracle — rests on two conventions: result-affecting
//! state iterates in a fixed order (BTreeMap, fixed fan-out merge order),
//! and nothing on a result path reads a wall clock. This pass machine-checks
//! both.

use crate::findings::{Finding, Level};
use crate::lexer::TokenKind;
use crate::passes::{live_ident, report, Ctx, Pass};
use crate::source::FileClass;

/// See module docs.
pub struct Determinism;

/// The single sanctioned wall-clock site: everything that needs monotonic
/// time goes through `megastream_telemetry::clock`.
pub const CLOCK_MODULE: &str = "crates/telemetry/src/clock.rs";

impl Pass for Determinism {
    fn id(&self) -> &'static str {
        "determinism"
    }

    fn summary(&self) -> &'static str {
        "wall-clock reads outside telemetry::clock; HashMap/HashSet/RandomState in \
         result-affecting crates"
    }

    fn explain(&self) -> &'static str {
        "WHAT: flags (a) `Instant::now` / `SystemTime::now` in any first-party crate source \
outside the one sanctioned site, `crates/telemetry/src/clock.rs` (bench harnesses, the \
vendored criterion shim, tests, and examples are exempt); (b) the identifiers `HashMap` / \
`HashSet` / `RandomState` in non-test code of the result-affecting crates (flow, flowtree, \
flowdb, datastore, primitives, replication, storage).\n\
WHY: the PR 4 equivalence proof (tests/parallel_e2e.rs, tests/merge_laws.rs) shows \
Sequential and Threads(n) runs are bit-identical — which is only true because partials \
merge in fixed BTreeMap location order and no result path consults a clock. A stray \
`Instant::now` on a result path (e.g. a time-based tie-break) or an iterated std HashMap \
(whose RandomState ordering differs per instance) silently voids the proof: the \
space-saving sketch's min-eviction tie-break was exactly such a bug. Routing clock reads \
through telemetry::clock also keeps them behind the enabled-check, preserving the \
telemetry-off zero-cost contract. `RandomState` is the per-instance random seed itself: a \
hand-rolled hash table keyed by it has the same seed-dependent layout as a std HashMap \
without ever naming one, so the seed, not the container, is what gets flagged.\n\
ALLOWLIST: HashMap uses and hand-rolled tables that are pure point-lookups (never \
iterated on a result path, order never observable) may be excused with a justification \
saying so; wall-clock reads outside the clock module should be fixed, not excused."
    }

    fn run(&self, ctx: &Ctx<'_>, level: Level, out: &mut Vec<Finding>) {
        for file in &ctx.ws.files {
            let toks = &file.tokens;
            // (a) wall-clock reads: all first-party crate sources except the
            // clock module itself. Shims (criterion drives benches), tests,
            // benches, and examples time things legitimately.
            let clock_scope = matches!(
                file.class,
                FileClass::DataPlaneSrc | FileClass::CrateSrc | FileClass::RootSrc
            ) && file.rel_path != CLOCK_MODULE;
            if clock_scope {
                for i in 0..toks.len() {
                    for ty in ["Instant", "SystemTime"] {
                        if live_ident(file, i, ty)
                            && toks.get(i + 1).map(|t| t.kind) == Some(TokenKind::Punct(b':'))
                            && toks.get(i + 2).map(|t| t.kind) == Some(TokenKind::Punct(b':'))
                            && toks.get(i + 3).is_some_and(|t| t.text(&file.text) == "now")
                        {
                            report(
                                out,
                                file,
                                i,
                                self.id(),
                                level,
                                &format!("{ty}::now"),
                                format!(
                                    "`{ty}::now()` outside telemetry::clock — route monotonic \
                                     time through the sanctioned clock module"
                                ),
                            );
                        }
                    }
                }
            }
            // (b) unordered maps, and the random seed that makes them
            // unordered, in result-affecting crates.
            if file.is_result_affecting() {
                for i in 0..toks.len() {
                    for ty in ["HashMap", "HashSet", "RandomState"] {
                        if live_ident(file, i, ty) {
                            report(
                                out,
                                file,
                                i,
                                self.id(),
                                level,
                                ty,
                                format!(
                                    "`{ty}` in a result-affecting crate: iteration order is \
                                     randomized per instance; use BTreeMap/BTreeSet or \
                                     justify that order never escapes"
                                ),
                            );
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{SourceFile, Workspace};

    fn run_on(path: &str, src: &str) -> Vec<Finding> {
        let ws = Workspace {
            files: vec![SourceFile::from_text(path, src.to_string())],
        };
        let ctx = Ctx {
            ws: &ws,
            design_md: None,
        };
        let mut out = Vec::new();
        Determinism.run(&ctx, Level::Deny, &mut out);
        out
    }

    #[test]
    fn flags_instant_now_outside_clock() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        let found = run_on("crates/flowdb/src/par.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].key, "Instant::now");
    }

    #[test]
    fn clock_module_and_bench_are_exempt() {
        let src = "fn f() { let t = Instant::now(); }";
        assert!(run_on("crates/telemetry/src/clock.rs", src).is_empty());
        assert!(run_on("crates/bench/benches/e1.rs", src).is_empty());
        assert!(run_on("crates/criterion/src/lib.rs", src).is_empty());
        assert!(run_on("tests/x.rs", src).is_empty());
    }

    #[test]
    fn flags_hashmap_only_in_result_affecting_crates() {
        let src = "use std::collections::HashMap;\nstruct S { m: HashMap<u8, u8> }";
        assert_eq!(run_on("crates/primitives/src/a.rs", src).len(), 2);
        // telemetry is data-plane for panics but not result-affecting.
        assert!(run_on("crates/telemetry/src/registry.rs", src).is_empty());
        assert!(run_on("crates/manager/src/a.rs", src).is_empty());
    }

    #[test]
    fn flags_random_state_behind_a_hand_rolled_table() {
        // No HashMap in sight: the seed alone is what makes the layout
        // differ per instance.
        let src = "use std::hash::{BuildHasher, RandomState};\n\
                   struct Table { seed: RandomState, slots: Vec<u64> }";
        let found = run_on("crates/flowtree/src/a.rs", src);
        assert_eq!(found.len(), 2);
        assert!(found.iter().all(|f| f.key == "RandomState"));
        assert!(run_on("crates/manager/src/a.rs", src).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests { use std::collections::HashMap; \
                   fn t() { let _ = std::time::Instant::now(); } }";
        assert!(run_on("crates/flow/src/a.rs", src).is_empty());
    }

    #[test]
    fn instant_in_string_or_comment_is_ignored() {
        let src = "// Instant::now() here\nfn f() { let s = \"Instant::now\"; }";
        assert!(run_on("crates/flow/src/a.rs", src).is_empty());
    }
}
