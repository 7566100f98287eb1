//! Node protocol states and the legal transition relation (paper Fig. 3).

use serde::{Deserialize, Serialize};

/// The three PAS states (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeState {
    /// The stimulus has been detected at this node.
    Covered,
    /// Predicted arrival within the alert threshold; awake and relaying.
    Alert,
    /// No stimulus expected soon; duty-cycling.
    Safe,
}

impl NodeState {
    /// `true` if the paper's state diagram (Fig. 3) permits `self → to`.
    ///
    /// Legal transitions:
    /// * Safe → Alert (arrival prediction below threshold)
    /// * Safe → Covered (stimulus detected on wake-up)
    /// * Alert → Covered (stimulus detected while awake)
    /// * Alert → Safe (prediction rose above threshold)
    /// * Covered → Safe (stimulus moved away, after detection timeout)
    ///
    /// Self-transitions are vacuously allowed; Covered → Alert is not (a
    /// node that has seen the stimulus either still sees it or is safe).
    pub fn can_transition_to(self, to: NodeState) -> bool {
        use NodeState::*;
        matches!(
            (self, to),
            (Safe, Alert)
                | (Safe, Covered)
                | (Alert, Covered)
                | (Alert, Safe)
                | (Covered, Safe)
                | (Safe, Safe)
                | (Alert, Alert)
                | (Covered, Covered)
        )
    }

    /// Compact label for reports.
    pub fn label(self) -> &'static str {
        match self {
            NodeState::Covered => "covered",
            NodeState::Alert => "alert",
            NodeState::Safe => "safe",
        }
    }
}

impl core::fmt::Display for NodeState {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use NodeState::*;

    #[test]
    fn paper_fig3_transitions_allowed() {
        assert!(Safe.can_transition_to(Alert));
        assert!(Safe.can_transition_to(Covered));
        assert!(Alert.can_transition_to(Covered));
        assert!(Alert.can_transition_to(Safe));
        assert!(Covered.can_transition_to(Safe));
    }

    #[test]
    fn illegal_transitions_rejected() {
        assert!(!Covered.can_transition_to(Alert));
    }

    #[test]
    fn self_transitions_allowed() {
        for s in [Covered, Alert, Safe] {
            assert!(s.can_transition_to(s));
        }
    }

    #[test]
    fn labels() {
        assert_eq!(Covered.label(), "covered");
        assert_eq!(format!("{Alert}"), "alert");
        assert_eq!(format!("{Safe}"), "safe");
    }
}
