//! Baselines the SDR paper compares against (§1.2, §5.2).
//!
//! * [`CfgUnison`] — the Couvreur–Francez–Gouda-style self-stabilizing
//!   unison: the same increment rule as Algorithm U plus a *local reset*
//!   rule (`c_u := 0` on detected incoherence), with period `K > n²`.
//!   Boulinier's thesis shows this works under the distributed unfair
//!   daemon in `O(D·n)` rounds; its move complexity is the weak point
//!   (`O(D·n³ + α·n²)` for the parametric family, shown in \[23\]) because
//!   nothing coordinates concurrent resets — a process can be dragged
//!   into many successive reset cascades. This type therefore doubles
//!   as the **non-cooperative ablation** of experiment E10: it is
//!   exactly "unison with uncoordinated local resets instead of SDR".
//! * [`MonoReset`] — a mono-initiator reset in the spirit of Arora &
//!   Gouda \[4\]: inconsistency reports are forwarded to a fixed root
//!   through a BFS tree, which then runs a single global
//!   broadcast-feedback reset wave. Built here on a *pre-computed* tree
//!   (the original also self-stabilizes the tree; our substitution
//!   isolates the property being compared — single- vs multi-initiator
//!   reset coordination — and is documented in DESIGN.md).
//!
//! # Examples
//!
//! ```
//! use ssr_baselines::CfgUnison;
//! use ssr_graph::generators;
//! use ssr_runtime::{Daemon, Simulator};
//! use ssr_unison::spec;
//!
//! let g = generators::ring(6);
//! let algo = CfgUnison::for_graph(&g);
//! let k = algo.period();
//! let init = algo.arbitrary_config(&g, 7);
//! let mut sim = Simulator::new(&g, algo, init, Daemon::Central, 3);
//! let out = sim.execution().cap(1_000_000).until(|gr, st| spec::safety_holds(gr, st, k)).run();
//! assert!(out.reached, "CFG unison stabilizes");
//! ```

#![forbid(unsafe_code)]

mod cfg_unison;
pub mod family;
mod mono_reset;

pub use cfg_unison::{CfgUnison, RULE_CFG_INC, RULE_CFG_RESET};
pub use family::{CfgUnisonFamily, MonoResetFamily};
pub use mono_reset::{MonoReset, MonoState, Phase};
