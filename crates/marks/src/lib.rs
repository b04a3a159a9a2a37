//! Marker attributes for the GeoGrid audit tooling.
//!
//! The attributes in this crate expand to their input unchanged — they
//! exist so that performance- and correctness-critical functions carry a
//! machine-readable marker in the source itself. The `geogrid-audit`
//! binary (`cargo lint-all`) scans the workspace for these markers and
//! enforces the rules attached to them; see `crates/audit` and DESIGN.md
//! §7 for the rule catalog.

#![forbid(unsafe_code)]

use proc_macro::TokenStream;

/// Marks a function as part of the routing hot path.
///
/// Functions carrying this attribute must not allocate, block, or panic.
/// Lint rule **GG008** rejects `Vec::new`, `vec!`, `.clone()`,
/// `.to_vec()`, `.collect()`, `Box::new`, `format!`, `.to_string()`,
/// `.to_owned()`, `String::new`/`from`, and
/// `HashMap`/`HashSet`/`BTreeMap::new` in the marked function's own body
/// *and* anywhere reachable from it through a chain of first-party
/// helpers, so an allocation cannot hide behind a named helper. A
/// genuinely cold helper on a hot call path (one-time lazy init, capped
/// promotion) is excused by annotating it with
/// `// audit: hot-path-exempt(reason)` — the reason is mandatory (GG000)
/// and the exemption cuts the reachability walk at that function.
///
/// The attribute itself is a no-op at compile time.
#[proc_macro_attribute]
pub fn hot_path(_attr: TokenStream, item: TokenStream) -> TokenStream {
    item
}
