//! `wcdma-mac`: the cdma2000 packet-data MAC layer of Figure 3.
//!
//! * [`states`] — the Active / Control Hold / Suspended / Dormant state
//!   machine, its timeouts (T2, T3), and the setup-delay penalty step
//!   function `D_s(t_w)` of eq. (22–23).
//! * [`request`] — burst requests (SCRM semantics: per-user, per-direction,
//!   merged queue depth) and the pending-request queue with waiting-time
//!   bookkeeping the J2 objective consumes.

#![warn(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]

pub mod request;
pub mod states;

pub use request::{BurstRequest, LinkDir, RequestQueue};
pub use states::{MacState, MacStateMachine, MacTimers};
