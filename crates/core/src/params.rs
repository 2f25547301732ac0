//! Protocol parameters derived from the population target `N`.
//!
//! The paper fixes (§3): epochs of `T = ½·log N · T_inner` rounds with
//! `T_inner = ω(log N)` (presented as `log² N`), leader probability
//! `1/(8√N)` and split probability `1 − 16/√N`. Both probabilities are
//! realized by [`toss_biased_coin`](crate::coin::toss_biased_coin) with
//! integral exponents, which requires `log₂ N` to be even (so `√N` is a
//! power of two) and `log₂ N ≥ 10` (so the split exponent is positive).

use std::error::Error;
use std::fmt;

/// Errors from parameter validation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParamsError {
    /// `N` must be a power of four (`log₂ N` even) so `√N` is a power of two.
    NotPowerOfFour(u64),
    /// `N` must be at least `2^10` so the split bias exponent is positive.
    TooSmall(u64),
    /// `T_inner` must be at least 2 rounds.
    SubphaseTooShort(u32),
}

impl fmt::Display for ParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamsError::NotPowerOfFour(n) => {
                write!(f, "target population {n} is not a power of four")
            }
            ParamsError::TooSmall(n) => {
                write!(
                    f,
                    "target population {n} is below the minimum 1024 (log N must be at least 10)"
                )
            }
            ParamsError::SubphaseTooShort(t) => {
                write!(
                    f,
                    "subphase length {t} is too short; T_inner must be at least 2"
                )
            }
        }
    }
}

impl Error for ParamsError {}

/// All derived constants of one protocol instantiation.
///
/// Construct with [`Params::for_target`] (paper defaults) or
/// [`Params::builder`] (overrides for ablation experiments).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Params {
    target: u64,
    log2_n: u32,
    subphases: u32,
    t_inner: u32,
    /// `⌈2⁶⁴ / t_inner⌉` (wrapping): Lemire's divisibility magic, so the
    /// per-agent subphase-boundary test in the protocol hot loop is a
    /// multiply instead of a division. Derived from `t_inner` in `build`.
    t_inner_magic: u64,
    leader_bias_exp: u32,
    split_bias_exp: u32,
}

impl Params {
    /// Paper-default parameters for target `n` (must be `4^k`, `k ≥ 5`).
    ///
    /// # Errors
    ///
    /// Returns a [`ParamsError`] if `n` is not a power of four or is below
    /// `1024`.
    ///
    /// ```
    /// let p = popstab_core::params::Params::for_target(4096)?;
    /// assert_eq!(p.epoch_len(), 6 * 144); // ½·12 subphases × log²N rounds
    /// assert_eq!(p.sqrt_n(), 64);
    /// # Ok::<(), popstab_core::params::ParamsError>(())
    /// ```
    pub fn for_target(n: u64) -> Result<Params, ParamsError> {
        Params::builder(n).build()
    }

    /// Starts a builder for target `n`, allowing overrides of `T_inner` and
    /// the coin biases (used by the ablation experiments).
    pub fn builder(n: u64) -> ParamsBuilder {
        ParamsBuilder {
            target: n,
            t_inner: None,
            leader_bias_exp: None,
            split_bias_exp: None,
        }
    }

    /// The population target `N`.
    pub fn target(&self) -> u64 {
        self.target
    }

    /// `log₂ N`.
    pub fn log2_n(&self) -> u32 {
        self.log2_n
    }

    /// `√N` (exact: `log₂ N` is even).
    pub fn sqrt_n(&self) -> u64 {
        1 << (self.log2_n / 2)
    }

    /// Number of recruitment subphases, `½·log₂ N`.
    pub fn subphases(&self) -> u32 {
        self.subphases
    }

    /// Rounds per subphase, `T_inner` (default `log₂² N`).
    pub fn t_inner(&self) -> u32 {
        self.t_inner
    }

    /// Epoch length `T = subphases × T_inner`. Round 0 is leader selection,
    /// rounds `1 … T−2` are recruitment, round `T−1` is evaluation (the first
    /// and last subphases are one round shorter, per the paper).
    pub fn epoch_len(&self) -> u32 {
        self.subphases * self.t_inner
    }

    /// Exponent `a` with `Pr[leader] = 2^-a`; default `a = 3 + ½ log N`
    /// giving `1/(8√N)`.
    pub fn leader_bias_exp(&self) -> u32 {
        self.leader_bias_exp
    }

    /// Exponent `b` with `Pr[no split] = 2^-b`; default `b = ½ log N − 4`
    /// giving split probability `1 − 16/√N`.
    pub fn split_bias_exp(&self) -> u32 {
        self.split_bias_exp
    }

    /// Probability that an agent becomes a leader in round 0.
    pub fn leader_probability(&self) -> f64 {
        0.5f64.powi(self.leader_bias_exp as i32)
    }

    /// Probability that a matched same-color pair member splits.
    pub fn split_probability(&self) -> f64 {
        1.0 - 0.5f64.powi(self.split_bias_exp as i32)
    }

    /// The round index of the evaluation phase, `T − 1`.
    pub fn eval_round(&self) -> u32 {
        self.epoch_len() - 1
    }

    /// Whether `round` is the last round of a subphase (`≡ −1 mod T_inner`),
    /// after which active agents arm `recruiting` again.
    pub fn is_subphase_boundary(&self, round: u32) -> bool {
        // `n % d == 0  ⇔  n·⌈2⁶⁴/d⌉ (mod 2⁶⁴) < ⌈2⁶⁴/d⌉` (Lemire); one
        // multiply instead of a division in the protocol's per-agent loop.
        u64::from(round + 1).wrapping_mul(self.t_inner_magic) < self.t_inner_magic
    }

    /// The subphase (1-based) containing recruitment round `round`,
    /// `⌈(round+1)/T_inner⌉` as in Algorithm 5.
    pub fn subphase_of_round(&self, round: u32) -> u32 {
        (round + 1).div_ceil(self.t_inner)
    }

    /// `to_recruit` value assigned to an agent recruited in `round`:
    /// `½ log N − ⌈(round+1)/T_inner⌉`.
    pub fn to_recruit_at(&self, round: u32) -> u32 {
        self.subphases.saturating_sub(self.subphase_of_round(round))
    }

    /// The paper's adversary tolerance `K = N^{1/4−ε}` for a given `ε`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a saturating float-to-int cast of a value at most N for ε ≥ −3/4"
    )]
    pub fn adversary_tolerance(&self, epsilon: f64) -> usize {
        (self.target as f64).powf(0.25 - epsilon).floor() as usize
    }

    /// Expected cluster size induced by each leader: `2^subphases = √N`.
    pub fn cluster_size(&self) -> u64 {
        1 << self.subphases
    }
}

impl fmt::Display for Params {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Params(N=2^{}, T={}×{}={}, Pr[leader]=2^-{}, Pr[split]=1-2^-{})",
            self.log2_n,
            self.subphases,
            self.t_inner,
            self.epoch_len(),
            self.leader_bias_exp,
            self.split_bias_exp
        )
    }
}

/// Builder allowing non-default subphase lengths and coin biases.
#[derive(Debug, Clone)]
pub struct ParamsBuilder {
    target: u64,
    t_inner: Option<u32>,
    leader_bias_exp: Option<u32>,
    split_bias_exp: Option<u32>,
}

impl ParamsBuilder {
    /// Overrides the subphase length `T_inner` (paper default: `log₂² N`;
    /// any `ω(log N)` value is admissible per the paper's footnote 5).
    pub fn t_inner(mut self, t_inner: u32) -> Self {
        self.t_inner = Some(t_inner);
        self
    }

    /// Overrides the leader-probability exponent (ablations only).
    pub fn leader_bias_exp(mut self, exp: u32) -> Self {
        self.leader_bias_exp = Some(exp);
        self
    }

    /// Overrides the split-probability exponent (ablations only).
    pub fn split_bias_exp(mut self, exp: u32) -> Self {
        self.split_bias_exp = Some(exp);
        self
    }

    /// Validates and builds the parameters.
    ///
    /// # Errors
    ///
    /// See [`ParamsError`].
    pub fn build(self) -> Result<Params, ParamsError> {
        let n = self.target;
        if !n.is_power_of_two() || !n.trailing_zeros().is_multiple_of(2) {
            return Err(ParamsError::NotPowerOfFour(n));
        }
        let log2_n = n.trailing_zeros();
        if log2_n < 10 {
            return Err(ParamsError::TooSmall(n));
        }
        let subphases = log2_n / 2;
        let t_inner = self.t_inner.unwrap_or(log2_n * log2_n);
        if t_inner < 2 {
            return Err(ParamsError::SubphaseTooShort(t_inner));
        }
        Ok(Params {
            target: n,
            log2_n,
            subphases,
            t_inner,
            t_inner_magic: (u64::MAX / u64::from(t_inner)) + 1,
            leader_bias_exp: self.leader_bias_exp.unwrap_or(3 + subphases),
            split_bias_exp: self.split_bias_exp.unwrap_or(subphases - 4),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_for_1024() {
        let p = Params::for_target(1024).unwrap();
        assert_eq!(p.log2_n(), 10);
        assert_eq!(p.sqrt_n(), 32);
        assert_eq!(p.subphases(), 5);
        assert_eq!(p.t_inner(), 100);
        assert_eq!(p.epoch_len(), 500);
        assert_eq!(p.eval_round(), 499);
        assert_eq!(p.leader_bias_exp(), 8); // 1/(8·32) = 1/256 = 2^-8
        assert_eq!(p.split_bias_exp(), 1); // 16/32 = 1/2
        assert_eq!(p.cluster_size(), 32);
    }

    #[test]
    fn paper_defaults_for_65536() {
        let p = Params::for_target(65536).unwrap();
        assert_eq!(p.sqrt_n(), 256);
        assert_eq!(p.subphases(), 8);
        assert_eq!(p.epoch_len(), 8 * 256);
        assert!((p.leader_probability() - 1.0 / 2048.0).abs() < 1e-12);
        assert!((p.split_probability() - (1.0 - 16.0 / 256.0)).abs() < 1e-12);
    }

    #[test]
    fn rejects_non_power_of_four() {
        assert_eq!(
            Params::for_target(2048),
            Err(ParamsError::NotPowerOfFour(2048))
        );
        assert_eq!(
            Params::for_target(1000),
            Err(ParamsError::NotPowerOfFour(1000))
        );
        assert_eq!(Params::for_target(0), Err(ParamsError::NotPowerOfFour(0)));
    }

    #[test]
    fn rejects_too_small() {
        assert_eq!(Params::for_target(256), Err(ParamsError::TooSmall(256)));
        assert_eq!(Params::for_target(64), Err(ParamsError::TooSmall(64)));
    }

    #[test]
    fn builder_overrides() {
        let p = Params::builder(4096).t_inner(24).build().unwrap();
        assert_eq!(p.t_inner(), 24);
        assert_eq!(p.epoch_len(), 6 * 24);
        let p = Params::builder(4096)
            .split_bias_exp(5)
            .leader_bias_exp(7)
            .build()
            .unwrap();
        assert_eq!(p.split_bias_exp(), 5);
        assert_eq!(p.leader_bias_exp(), 7);
    }

    #[test]
    fn builder_rejects_tiny_subphase() {
        assert_eq!(
            Params::builder(4096).t_inner(1).build(),
            Err(ParamsError::SubphaseTooShort(1))
        );
    }

    #[test]
    fn subphase_arithmetic() {
        let p = Params::builder(1024).t_inner(10).build().unwrap();
        // T = 50; subphase boundaries at rounds 9, 19, 29, 39, 49.
        assert!(p.is_subphase_boundary(9));
        assert!(p.is_subphase_boundary(49));
        assert!(!p.is_subphase_boundary(10));
        assert!(!p.is_subphase_boundary(0));
        // Round 1 is in subphase 1; an agent recruited there owes 4 more.
        assert_eq!(p.subphase_of_round(1), 1);
        assert_eq!(p.to_recruit_at(1), 4);
        // Recruited in the final subphase -> owes 0.
        assert_eq!(p.subphase_of_round(48), 5);
        assert_eq!(p.to_recruit_at(48), 0);
    }

    #[test]
    fn to_recruit_is_monotone_nonincreasing_in_round() {
        let p = Params::for_target(1024).unwrap();
        let mut prev = u32::MAX;
        for r in 1..p.epoch_len() - 1 {
            let t = p.to_recruit_at(r);
            assert!(t <= prev);
            prev = t;
        }
        assert_eq!(p.to_recruit_at(p.epoch_len() - 2), 0);
    }

    #[test]
    fn adversary_tolerance_scales() {
        let p = Params::for_target(65536).unwrap();
        assert_eq!(p.adversary_tolerance(0.0), 16); // N^{1/4}
        assert!(p.adversary_tolerance(0.05) < 16);
    }

    #[test]
    fn display_mentions_structure() {
        let p = Params::for_target(1024).unwrap();
        let s = p.to_string();
        assert!(s.contains("N=2^10"));
        assert!(s.contains("500"));
    }

    #[test]
    fn error_display() {
        assert!(ParamsError::NotPowerOfFour(7)
            .to_string()
            .contains("power of four"));
        assert!(ParamsError::TooSmall(4).to_string().contains("minimum"));
        assert!(ParamsError::SubphaseTooShort(1)
            .to_string()
            .contains("at least 2"));
    }
}
