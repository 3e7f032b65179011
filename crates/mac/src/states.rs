//! cdma2000 packet-data MAC states — Figure 3.
//!
//! A data user's MAC connection decays through four states as it idles:
//!
//! ```text
//! Active ──T_active──▶ Control Hold ──T2──▶ Suspended ──T3──▶ Dormant
//!    ▲                      │                   │                │
//!    └──── burst grant ─────┴──── +D1 ──────────┴──── +D2 ───────┘
//! ```
//!
//! * **Active** — SCH burst in progress.
//! * **Control Hold** — dedicated control channel maintained; a new burst
//!   starts with no extra setup delay.
//! * **Suspended** — control channel released but state retained; resuming
//!   costs `D1` of signalling.
//! * **Dormant** — everything released; resuming costs the full
//!   re-establishment delay `D2`.
//!
//! Equation (23) expresses the same thing as a function of the request
//! waiting time `t_w`: while a request waits, the MAC decays underneath it,
//! so `D_s = 0` for `t_w < T2`, `D1` for `t_w ∈ [T2, T3)`, `D2` beyond.

/// The MAC connection state of a data user.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MacState {
    /// Burst transmission in progress.
    Active,
    /// Dedicated control channel maintained.
    ControlHold,
    /// State retained, channel released.
    Suspended,
    /// Fully released.
    Dormant,
}

/// Timer and penalty configuration (Figure 3 / eq. 22–23).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacTimers {
    /// Active → Control Hold inactivity timeout (s).
    pub t_active_s: f64,
    /// Control Hold → Suspended timeout, the paper's T2 (s).
    pub t2_s: f64,
    /// Suspended → Dormant timeout, the paper's T3 (s).
    pub t3_s: f64,
    /// Setup delay when resuming from Suspended, D1 (s).
    pub d1_s: f64,
    /// Setup delay when resuming from Dormant, D2 (s).
    pub d2_s: f64,
}

impl MacTimers {
    /// Default timers: T2 = 0.5 s, T3 = 2 s, D1 = 0.1 s, D2 = 0.5 s.
    pub fn default_timers() -> Self {
        Self {
            t_active_s: 0.06,
            t2_s: 0.5,
            t3_s: 2.0,
            d1_s: 0.1,
            d2_s: 0.5,
        }
    }

    /// Validates ordering invariants.
    // Negated comparisons are deliberate: they reject NaN-valued timers,
    // which the un-negated forms would silently accept.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn validate(&self) -> Result<(), String> {
        if !(self.t_active_s >= 0.0) {
            return Err("t_active must be non-negative".into());
        }
        if !(self.t2_s < self.t3_s) {
            return Err(format!("T2 {} must precede T3 {}", self.t2_s, self.t3_s));
        }
        if !(self.d1_s >= 0.0 && self.d2_s >= self.d1_s) {
            return Err("penalties must satisfy 0 <= D1 <= D2".into());
        }
        Ok(())
    }

    /// Setup-delay penalty `D_s` as a function of waiting time (eq. 23).
    pub fn setup_delay(&self, t_w: f64) -> f64 {
        assert!(t_w >= 0.0, "waiting time must be non-negative");
        if t_w < self.t2_s {
            0.0
        } else if t_w < self.t3_s {
            self.d1_s
        } else {
            self.d2_s
        }
    }

    /// Overall request delay `w = t_w + D_s(t_w)` (eq. 22).
    pub fn overall_delay(&self, t_w: f64) -> f64 {
        t_w + self.setup_delay(t_w)
    }
}

/// Per-user MAC state machine driven by idle time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacStateMachine {
    state: MacState,
    idle_s: f64,
    timers: MacTimers,
}

impl MacStateMachine {
    /// Creates a machine in Control Hold (fresh connection, no burst yet).
    pub fn new(timers: MacTimers) -> Self {
        timers.validate().expect("invalid MAC timers");
        Self {
            state: MacState::ControlHold,
            idle_s: 0.0,
            timers,
        }
    }

    /// Current state.
    pub fn state(&self) -> MacState {
        self.state
    }

    /// Time spent idle since the last burst activity (s).
    pub fn idle_time(&self) -> f64 {
        self.idle_s
    }

    /// The timer configuration.
    pub fn timers(&self) -> &MacTimers {
        &self.timers
    }

    /// Advances idle time by `dt`; decays the state across timeouts.
    /// No-op while Active (activity is signalled via [`Self::on_burst`]).
    pub fn tick(&mut self, dt: f64) {
        debug_assert!(dt >= 0.0);
        if self.state == MacState::Active {
            return;
        }
        self.idle_s += dt;
        self.state = if self.idle_s < self.timers.t2_s {
            MacState::ControlHold
        } else if self.idle_s < self.timers.t3_s {
            MacState::Suspended
        } else {
            MacState::Dormant
        };
    }

    /// A burst grant arrives: returns the setup delay implied by the current
    /// state and moves to Active.
    pub fn on_burst(&mut self) -> f64 {
        let d = match self.state {
            MacState::Active | MacState::ControlHold => 0.0,
            MacState::Suspended => self.timers.d1_s,
            MacState::Dormant => self.timers.d2_s,
        };
        self.state = MacState::Active;
        self.idle_s = 0.0;
        d
    }

    /// The burst finished: drop back to Control Hold and restart the decay
    /// clock.
    pub fn on_burst_end(&mut self) {
        self.state = MacState::ControlHold;
        self.idle_s = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> MacTimers {
        MacTimers::default_timers()
    }

    #[test]
    fn default_timers_valid() {
        t().validate().expect("default timers valid");
    }

    #[test]
    fn setup_delay_step_function() {
        let timers = t();
        assert_eq!(timers.setup_delay(0.0), 0.0);
        assert_eq!(timers.setup_delay(0.49), 0.0);
        assert_eq!(timers.setup_delay(0.5), 0.1);
        assert_eq!(timers.setup_delay(1.99), 0.1);
        assert_eq!(timers.setup_delay(2.0), 0.5);
        assert_eq!(timers.setup_delay(100.0), 0.5);
    }

    #[test]
    fn overall_delay_adds_penalty() {
        let timers = t();
        assert_eq!(timers.overall_delay(0.3), 0.3);
        assert!((timers.overall_delay(1.0) - 1.1).abs() < 1e-12);
        assert!((timers.overall_delay(3.0) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn state_decay_sequence() {
        let mut m = MacStateMachine::new(t());
        assert_eq!(m.state(), MacState::ControlHold);
        m.tick(0.4);
        assert_eq!(m.state(), MacState::ControlHold);
        m.tick(0.2); // 0.6 total ≥ T2
        assert_eq!(m.state(), MacState::Suspended);
        m.tick(1.5); // 2.1 total ≥ T3
        assert_eq!(m.state(), MacState::Dormant);
    }

    #[test]
    fn burst_from_each_state_costs_right_delay() {
        let mut m = MacStateMachine::new(t());
        assert_eq!(m.on_burst(), 0.0, "Control Hold resumes free");
        assert_eq!(m.state(), MacState::Active);
        m.on_burst_end();

        m.tick(1.0);
        assert_eq!(m.state(), MacState::Suspended);
        assert_eq!(m.on_burst(), 0.1, "Suspended costs D1");

        m.on_burst_end();
        m.tick(5.0);
        assert_eq!(m.state(), MacState::Dormant);
        assert_eq!(m.on_burst(), 0.5, "Dormant costs D2");
    }

    #[test]
    fn active_does_not_decay() {
        let mut m = MacStateMachine::new(t());
        m.on_burst();
        m.tick(100.0);
        assert_eq!(m.state(), MacState::Active);
        assert_eq!(m.idle_time(), 0.0);
    }

    #[test]
    fn consistency_between_machine_and_eq23() {
        // The state machine's penalty after idling t_w must equal the
        // closed-form D_s(t_w) for any waiting time.
        let timers = t();
        for &tw in &[0.0, 0.2, 0.5, 0.7, 1.9, 2.0, 4.2] {
            let mut m = MacStateMachine::new(timers);
            m.tick(tw);
            assert_eq!(
                m.on_burst(),
                timers.setup_delay(tw),
                "mismatch at t_w = {tw}"
            );
        }
    }

    #[test]
    fn validation_catches_bad_orderings() {
        let mut bad = t();
        bad.t3_s = bad.t2_s;
        assert!(bad.validate().is_err());
        let mut bad2 = t();
        bad2.d1_s = 1.0;
        bad2.d2_s = 0.5;
        assert!(bad2.validate().is_err());
    }
}
