//! Determinism rules: the repo's headline guarantee is a bit-identical
//! `Report::fingerprint()` at any thread count, which dies the moment
//! anything observable depends on unordered-map iteration order, wall-clock
//! time, or ambient entropy.

use super::{in_crate_src, Rule};
use crate::report::Finding;
use crate::scan::SourceFile;
use crate::Workspace;

/// Crates whose state feeds `Report::fingerprint()`; everything they keep
/// must iterate in a deterministic order.
const FINGERPRINT_CRATES: &[&str] = &["papaya-core", "papaya-secagg", "papaya-sim"];

/// Forbids `HashMap`/`HashSet` in fingerprint-feeding crates.  `std`'s
/// hasher is randomly seeded per instance, so *any* observable iteration
/// order is nondeterministic across runs; `BTreeMap`/`BTreeSet` iterate
/// sorted at equivalent cost for the simulator's map sizes.
pub struct UnorderedCollections;

impl Rule for UnorderedCollections {
    fn name(&self) -> &'static str {
        "unordered-collections"
    }

    fn description(&self) -> &'static str {
        "HashMap/HashSet are banned in fingerprint-feeding crates (papaya-core, papaya-secagg, papaya-sim); use BTreeMap/BTreeSet"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for file in &ws.files {
            if !FINGERPRINT_CRATES
                .iter()
                .any(|c| in_crate_src(&file.path, c))
            {
                continue;
            }
            for tok in &file.tokens {
                if (tok.text == "HashMap" || tok.text == "HashSet") && !file.is_test_line(tok.line)
                {
                    out.push(Finding::new(
                        &file.path,
                        tok.line,
                        self.name(),
                        format!(
                            "`{}` iterates in a randomly seeded order; fingerprint-feeding \
                             crates must use `BTree{}` (or collect and sort before iterating)",
                            tok.text,
                            &tok.text[4..]
                        ),
                    ));
                }
            }
        }
    }
}

/// Crates whose bits must not depend on the host's libm.
const LIBM_FREE_CRATES: &[&str] = &["papaya-lm"];

/// `f32`/`f64` methods that call the host's libm.
const AMBIENT_MATH: &[&str] = &[
    "exp", "exp_m1", "ln", "ln_1p", "tanh", "sin", "cos", "powf", "powi",
];

/// The fused multiply-add: `a.mul_add(b, c)` rounds once where `a * b + c`
/// rounds twice.
const FUSED_MULTIPLY_ADD: &str = "mul_add";

/// Forbids libm calls in the libm-free crates (today `papaya-lm`), as
/// methods (`x.exp()`) or paths (`f32::exp(x)`).  IEEE 754 fixes the basic
/// operations bit for bit but not these: glibc, musl and Apple's libm
/// differ in the last bits, so a golden line that rests on them holds on
/// one host only.  `papaya_data::math` has the replacements.  `mul_add` is
/// banned there too: `papaya-lm`'s AVX2 build agrees with its portable one
/// only because nothing fuses a multiply and an add.
pub struct AmbientMath;

impl Rule for AmbientMath {
    fn name(&self) -> &'static str {
        "ambient-math"
    }

    fn description(&self) -> &'static str {
        "libm calls (exp, exp_m1, ln, ln_1p, tanh, sin, cos, powf, powi) and mul_add are banned in papaya-lm; use papaya_data::math, and a multiply then an add"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for file in &ws.files {
            if !LIBM_FREE_CRATES.iter().any(|c| in_crate_src(&file.path, c)) {
                continue;
            }
            let toks = &file.tokens;
            for i in 1..toks.len() {
                let name = toks[i].text.as_str();
                let called = match toks[i - 1].text.as_str() {
                    "." => toks.get(i + 1).is_some_and(|t| t.text == "("),
                    "::" => i >= 2 && matches!(toks[i - 2].text.as_str(), "f32" | "f64"),
                    _ => false,
                };
                if !called || file.is_test_line(toks[i].line) {
                    continue;
                }
                let message = if name == FUSED_MULTIPLY_ADD {
                    "`mul_add` rounds once where `a * b + c` rounds twice, so its bits \
                     depend on the build; write the multiply and the add"
                        .to_string()
                } else if AMBIENT_MATH.contains(&name) {
                    format!(
                        "`{name}` is the host libm's, whose last bits differ between \
                         hosts; use `papaya_data::math` (or justify a use no result \
                         depends on with an allow)"
                    )
                } else {
                    continue;
                };
                out.push(Finding::new(&file.path, toks[i].line, self.name(), message));
            }
        }
    }
}

/// Forbids wall-clock reads (`Instant::now`, `SystemTime`) outside
/// explicitly allowed profiling sites: virtual time is the only clock the
/// simulation may observe.
pub struct WallClock;

impl Rule for WallClock {
    fn name(&self) -> &'static str {
        "wall-clock"
    }

    fn description(&self) -> &'static str {
        "Instant::now/SystemTime are banned outside justified profiling sites; simulations observe virtual time only"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for file in &ws.files {
            scan_wall_clock(file, self.name(), out);
        }
    }
}

fn scan_wall_clock(file: &SourceFile, rule: &str, out: &mut Vec<Finding>) {
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if file.is_test_line(toks[i].line) {
            continue;
        }
        if toks[i].text == "Instant"
            && toks.get(i + 1).map(|t| t.text.as_str()) == Some("::")
            && toks.get(i + 2).map(|t| t.text.as_str()) == Some("now")
        {
            out.push(Finding::new(
                &file.path,
                toks[i].line,
                rule,
                "`Instant::now()` reads the machine clock; simulation results must be a \
                 function of the seed (justify profiling-only uses with an allow)",
            ));
        }
        if toks[i].text == "SystemTime" {
            out.push(Finding::new(
                &file.path,
                toks[i].line,
                rule,
                "`SystemTime` reads the machine clock; simulation results must be a \
                 function of the seed",
            ));
        }
    }
}

/// Forbids ambient entropy sources: every random stream must be derived
/// from the scenario seed.
pub struct Entropy;

/// Identifiers that smuggle ambient randomness into a run.
const ENTROPY_IDENTS: &[&str] = &[
    "thread_rng",
    "from_entropy",
    "OsRng",
    "RandomState",
    "getrandom",
];

impl Rule for Entropy {
    fn name(&self) -> &'static str {
        "entropy"
    }

    fn description(&self) -> &'static str {
        "ambient entropy (thread_rng, from_entropy, OsRng, RandomState, getrandom) is banned; derive every stream from the scenario seed"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for file in &ws.files {
            for tok in &file.tokens {
                if ENTROPY_IDENTS.contains(&tok.text.as_str()) && !file.is_test_line(tok.line) {
                    out.push(Finding::new(
                        &file.path,
                        tok.line,
                        self.name(),
                        format!(
                            "`{}` draws ambient entropy; every random stream must be \
                             derived from the scenario seed",
                            tok.text
                        ),
                    ));
                }
            }
        }
    }
}
