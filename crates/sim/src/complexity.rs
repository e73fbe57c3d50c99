//! Closed-form complexity formulas of Tables 1, 5 and 6 of the paper.
//!
//! Every entry returns an *operation/element count* (not wall time): the
//! timing simulator multiplies these by calibrated per-operation costs,
//! and the table binaries print them directly so the asymptotic
//! comparison can be regenerated and inspected.

/// Parameters of the complexity comparison: `N` users, model size `d`,
/// seed length `s` (in field elements, `s ≪ d`), privacy `T`, dropouts
/// `D`, target survivors `U`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComplexityParams {
    /// Number of users `N`.
    pub(crate) n: usize,
    /// Model dimension `d`.
    pub(crate) d: usize,
    /// Seed/key length `s` in field elements.
    pub(crate) s: usize,
    /// Privacy guarantee `T`.
    pub(crate) t: usize,
    /// Dropout-resiliency guarantee `D`.
    pub(crate) dropped: usize,
    /// Targeted surviving users `U`.
    pub(crate) u: usize,
}

impl ComplexityParams {
    /// The paper's canonical setting: `T = N/2`, `D = pN`,
    /// `U = (1−p)N` (Table 1 caption), `s = 8` field elements.
    pub fn paper_setting(n: usize, d: usize, dropout_rate: f64) -> Self {
        let dropped = ((n as f64) * dropout_rate) as usize;
        let t = n / 2;
        let dropped = dropped.min(n - t - 1);
        let u = n - dropped;
        Self {
            n,
            d,
            s: 8,
            t,
            dropped,
            u,
        }
    }

    fn log2n(&self) -> f64 {
        (self.n.max(2) as f64).log2()
    }
}

/// The three compared protocols.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Bonawitz et al. 2017.
    SecAgg,
    /// Bell et al. 2020.
    SecAggPlus,
    /// This paper.
    LightSecAgg,
}

impl Protocol {
    /// All three, in the paper's column order.
    pub const ALL: [Protocol; 3] = [
        Protocol::SecAgg,
        Protocol::SecAggPlus,
        Protocol::LightSecAgg,
    ];
}

/// Offline storage per user (Table 5 row 1).
pub fn offline_storage_per_user(p: &ComplexityParams, proto: Protocol) -> f64 {
    let (n, d, s) = (p.n as f64, p.d as f64, p.s as f64);
    match proto {
        Protocol::SecAgg => d + n * s,
        Protocol::SecAggPlus => d + s * p.log2n(),
        Protocol::LightSecAgg => d + n * d / (p.u - p.t) as f64,
    }
}

/// Offline communication per user (Table 5 row 2 / Table 1 row 1).
pub fn offline_comm_per_user(p: &ComplexityParams, proto: Protocol) -> f64 {
    let (n, d, s) = (p.n as f64, p.d as f64, p.s as f64);
    match proto {
        Protocol::SecAgg => s * n,
        Protocol::SecAggPlus => s * p.log2n(),
        Protocol::LightSecAgg => d * n / (p.u - p.t) as f64,
    }
}

/// Offline computation per user (Table 5 row 3 / Table 1 row 2).
pub fn offline_comp_per_user(p: &ComplexityParams, proto: Protocol) -> f64 {
    let (n, d, s) = (p.n as f64, p.d as f64, p.s as f64);
    match proto {
        Protocol::SecAgg => d * n + s * n * n,
        Protocol::SecAggPlus => d * p.log2n() + s * p.log2n() * p.log2n(),
        Protocol::LightSecAgg => d * n * p.log2n() / (p.u - p.t) as f64,
    }
}

/// Online communication per user (Table 5 row 4 / Table 1 row 3).
pub fn online_comm_per_user(p: &ComplexityParams, proto: Protocol) -> f64 {
    let (n, d, s) = (p.n as f64, p.d as f64, p.s as f64);
    match proto {
        Protocol::SecAgg => d + s * n,
        Protocol::SecAggPlus => d + s * p.log2n(),
        Protocol::LightSecAgg => d + d / (p.u - p.t) as f64,
    }
}

/// Online communication at the server (Table 5 row 5 / Table 1 row 4).
pub fn online_comm_server(p: &ComplexityParams, proto: Protocol) -> f64 {
    let (n, d, s) = (p.n as f64, p.d as f64, p.s as f64);
    match proto {
        Protocol::SecAgg => d * n + s * n * n,
        Protocol::SecAggPlus => d * n + s * n * p.log2n(),
        Protocol::LightSecAgg => d * n + d * p.u as f64 / (p.u - p.t) as f64,
    }
}

/// Online computation per user (Table 5 row 6 / Table 1 row 5).
pub fn online_comp_per_user(p: &ComplexityParams, proto: Protocol) -> f64 {
    let d = p.d as f64;
    match proto {
        Protocol::SecAgg | Protocol::SecAggPlus => d,
        Protocol::LightSecAgg => d + d * p.u as f64 / (p.u - p.t) as f64,
    }
}

/// Decoding complexity at the server (Table 5 row 7).
pub fn decoding_server(p: &ComplexityParams, proto: Protocol) -> f64 {
    let (n, d, s) = (p.n as f64, p.d as f64, p.s as f64);
    let u = p.u as f64;
    match proto {
        Protocol::SecAgg => s * n * n,
        Protocol::SecAggPlus => s * n * p.log2n() * p.log2n(),
        Protocol::LightSecAgg => d * u * u.log2().max(1.0) / (p.u - p.t) as f64,
    }
}

/// PRG expansion at the server (Table 5 row 8); LightSecAgg has none.
pub fn prg_server(p: &ComplexityParams, proto: Protocol) -> f64 {
    let (n, d) = (p.n as f64, p.d as f64);
    match proto {
        Protocol::SecAgg => d * n * n,
        Protocol::SecAggPlus => d * n * p.log2n(),
        Protocol::LightSecAgg => 0.0,
    }
}

/// Total server reconstruction cost (Table 1 last row): decoding + PRG.
pub fn reconstruction_server(p: &ComplexityParams, proto: Protocol) -> f64 {
    decoding_server(p, proto) + prg_server(p, proto)
}

/// Table 6: randomness and storage comparison with the trusted-third-
/// party scheme of Zhao & Sun (2021).
pub mod zhao_sun {
    use super::ComplexityParams;

    /// `ln C(n, k)` via the log-gamma function (Stirling series), exact
    /// enough for the table's magnitude comparison.
    fn ln_binomial(n: usize, k: usize) -> f64 {
        ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
    }

    fn ln_factorial(n: usize) -> f64 {
        // Stirling with correction terms; exact table for small n.
        if n < 2 {
            return 0.0;
        }
        let x = (n + 1) as f64;
        let inv = 1.0 / x;
        (x - 0.5) * x.ln() - x + 0.5 * (2.0 * std::f64::consts::PI).ln() + inv / 12.0
            - inv.powi(3) / 360.0
    }

    /// `Σ_{u=U}^{N} C(N, u)` — the number of survivor sets the trusted
    /// third party must prepare for (returned as `ln` to avoid overflow,
    /// and as `f64` when it fits).
    pub(crate) fn survivor_set_count(p: &ComplexityParams) -> f64 {
        (p.u..=p.n).map(|k| ln_binomial(p.n, k).exp()).sum()
    }

    /// Total randomness (in `F^{d/(U−T)}_q` symbols) generated by the
    /// scheme of Zhao & Sun: `N(U−T) + T·Σ_{u=U}^N C(N,u)`.
    pub fn randomness_zhao_sun(p: &ComplexityParams) -> f64 {
        (p.n * (p.u - p.t)) as f64 + p.t as f64 * survivor_set_count(p)
    }

    /// Total randomness for LightSecAgg: `N·U` symbols.
    pub fn randomness_lightsecagg(p: &ComplexityParams) -> f64 {
        (p.n * p.u) as f64
    }

    /// Offline storage per user for Zhao & Sun:
    /// `U − T + Σ_{u=U}^N C(N,u)·u/N`.
    pub fn storage_zhao_sun(p: &ComplexityParams) -> f64 {
        let per_set: f64 = (p.u..=p.n)
            .map(|k| ln_binomial(p.n, k).exp() * k as f64 / p.n as f64)
            .sum();
        (p.u - p.t) as f64 + per_set
    }

    /// Offline storage per user for LightSecAgg: `U − T + N`.
    pub fn storage_lightsecagg(p: &ComplexityParams) -> f64 {
        (p.u - p.t + p.n) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ComplexityParams {
        ComplexityParams::paper_setting(100, 1_000_000, 0.1)
    }

    #[test]
    fn paper_setting_derives_u_and_t() {
        let p = params();
        assert_eq!(p.t, 50);
        assert_eq!(p.dropped, 10);
        assert_eq!(p.u, 90);
    }

    #[test]
    fn paper_setting_caps_dropouts_at_theorem1() {
        let p = ComplexityParams::paper_setting(100, 10, 0.9);
        assert!(p.t + p.dropped < p.n);
        assert_eq!(p.u, p.n - p.dropped);
    }

    #[test]
    fn lightsecagg_server_reconstruction_is_orders_smaller() {
        let p = params();
        let lsa = reconstruction_server(&p, Protocol::LightSecAgg);
        let sa = reconstruction_server(&p, Protocol::SecAgg);
        let sap = reconstruction_server(&p, Protocol::SecAggPlus);
        // SecAgg ~ dN², SecAgg+ ~ dN·logN, LSA ~ d·logN-ish
        assert!(lsa < sap);
        assert!(sap < sa);
        assert!(sa / lsa > 100.0, "ratio {}", sa / lsa);
    }

    #[test]
    fn lightsecagg_pays_more_offline_comm() {
        // the paper's honest trade-off: O(d) offline vs O(sN)
        let p = params();
        let lsa = offline_comm_per_user(&p, Protocol::LightSecAgg);
        let sa = offline_comm_per_user(&p, Protocol::SecAgg);
        assert!(lsa > sa);
    }

    #[test]
    fn zhao_sun_randomness_explodes() {
        // Table 6: the TTP scheme's randomness grows exponentially in N
        // while LightSecAgg's is N·U.
        let p = ComplexityParams::paper_setting(30, 1000, 0.2);
        let zs = zhao_sun::randomness_zhao_sun(&p);
        let lsa = zhao_sun::randomness_lightsecagg(&p);
        assert!(zs / lsa > 1e3, "zhao-sun {zs:.3e} vs lightsecagg {lsa:.3e}");
        assert!(zhao_sun::storage_zhao_sun(&p) > zhao_sun::storage_lightsecagg(&p));
    }

    #[test]
    fn binomial_sum_matches_exact_small_case() {
        // N = 10, U = 8: C(10,8)+C(10,9)+C(10,10) = 45+10+1 = 56
        let p = ComplexityParams {
            n: 10,
            d: 1,
            s: 1,
            t: 2,
            dropped: 2,
            u: 8,
        };
        let got = zhao_sun::survivor_set_count(&p);
        assert!((got - 56.0).abs() / 56.0 < 0.01, "got {got}");
    }
}
