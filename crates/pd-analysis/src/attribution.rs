//! Factor attribution — the paper's future work, implemented.
//!
//! Sec. 6: "In addition to scaling up the search for price
//! discrimination it would be desirable if we could attribute the
//! observed prices with the personal information of a user."
//!
//! This module does that by *controlled probing*: for one retailer, hold
//! every request attribute fixed and vary exactly one factor at a time —
//! country, city within a country, browser session, calendar day, login
//! state — then test whether prices move. Cross-currency comparisons go
//! through the exchange-band filter; same-currency comparisons use an
//! exact cent-level test. The result is a per-factor verdict with the
//! largest observed ratio, i.e. precisely the attribution table the
//! authors wanted.

use pd_currency::{band_filter, Locale, Price};
use pd_extract::HighlightExtractor;
use pd_net::clock::SimTime;
use pd_net::geo::{Country, Location};
use pd_web::template::price_selector;
use pd_web::{Request, WebWorld};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// A request attribute the prober can isolate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Factor {
    /// Client country (geo-IP granularity).
    Country,
    /// City within one country (CDN/zip granularity).
    CityWithinCountry,
    /// Browser session (cookie identity).
    Session,
    /// Calendar day.
    Day,
    /// Login state.
    Login,
}

impl Factor {
    /// All probe-able factors.
    pub const ALL: [Factor; 5] = [
        Factor::Country,
        Factor::CityWithinCountry,
        Factor::Session,
        Factor::Day,
        Factor::Login,
    ];
}

/// The verdict for one factor at one retailer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FactorEffect {
    /// The isolated factor.
    pub factor: Factor,
    /// Whether varying only this factor moved any probed price.
    pub varies: bool,
    /// Largest max/min ratio observed across probed products (1.0 when
    /// nothing moved).
    pub max_ratio: f64,
    /// Products probed.
    pub products: usize,
}

/// Attribution table for one retailer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Attribution {
    /// Retailer domain.
    pub domain: String,
    /// One verdict per factor, in [`Factor::ALL`] order.
    pub effects: Vec<FactorEffect>,
}

impl Attribution {
    /// The verdict for one factor.
    ///
    /// # Panics
    ///
    /// Never — every factor is probed.
    #[must_use]
    pub fn effect(&self, factor: Factor) -> &FactorEffect {
        self.effects
            .iter()
            .find(|e| e.factor == factor)
            .expect("all factors probed")
    }

    /// Factors that move prices at this retailer.
    #[must_use]
    pub fn varying_factors(&self) -> Vec<Factor> {
        self.effects
            .iter()
            .filter(|e| e.varies)
            .map(|e| e.factor)
            .collect()
    }
}

/// Probe endpoints: client addresses at the locations the prober needs.
/// Build once from the vantage fleet and reuse across domains.
#[derive(Debug, Clone)]
pub struct ProbeSet {
    /// A US baseline (e.g. Boston).
    pub us_a: (Ipv4Addr, Location),
    /// A second US city (e.g. Chicago) for the city factor.
    pub us_b: (Ipv4Addr, Location),
    /// A third US city (e.g. New York) for the city factor.
    pub us_c: (Ipv4Addr, Location),
    /// A foreign endpoint (e.g. Finland) for the country factor.
    pub foreign: (Ipv4Addr, Location),
}

/// Relative tolerance for same-currency comparisons: anything above a
/// tenth of a percent is a real move (cent rounding is far below).
const SAME_CURRENCY_EPS: f64 = 0.001;

/// Sessions probed per product for the session factor (an A/B test with
/// treatment fraction ≥ 0.1 is detected with probability > 99.99 % over
/// 10 products × 6 sessions).
const SESSIONS_PER_PRODUCT: usize = 6;

/// Runs the controlled probe against one retailer.
///
/// `products` bounds the probe size; `base_day` must leave one spare day
/// in the FX series for the day factor.
#[must_use]
pub fn attribute(
    world: &WebWorld,
    probes: &ProbeSet,
    domain: &str,
    products: usize,
    base_day: u64,
) -> Option<Attribution> {
    let server = world.server_by_domain(domain)?;
    let style = server.spec().template_style;
    let slugs: Vec<String> = server
        .catalog()
        .iter()
        .take(products)
        .map(|p| p.slug.clone())
        .collect();
    if slugs.is_empty() {
        return None;
    }
    let t0 = SimTime::from_millis(base_day * 24 * 3_600_000 + 10 * 3_600_000);
    let t1 = SimTime::from_millis((base_day + 1) * 24 * 3_600_000 + 10 * 3_600_000);

    let fetch = |slug: &str,
                 addr: Ipv4Addr,
                 country: Country,
                 time: SimTime,
                 cookies: &[(&str, &str)]|
     -> Option<Price> {
        let mut req = Request::get(domain, &format!("/product/{slug}"), addr, time);
        for (n, v) in cookies {
            req = req.with_cookie(n, v);
        }
        let resp = world.fetch(&req);
        if resp.status.code() != 200 {
            return None;
        }
        let doc = pd_html::parse(&resp.body);
        let ex = HighlightExtractor::from_highlight(&doc, &price_selector(style))?;
        ex.extract(&doc, Some(Locale::of_country(country)))
            .ok()
            .map(|e| e.price)
    };

    // Cross-currency pair: genuine iff the band filter confirms.
    let cross_ratio = |a: Price, b: Price, day: usize| -> (bool, f64) {
        match band_filter(world.fx(), &[a, b], day) {
            Some(v) if v.genuine => (true, v.nominal_ratio),
            _ => (false, 1.0),
        }
    };
    // Same-currency set: exact comparison, FX-free.
    let same_ratio = |prices: &[Price]| -> (bool, f64) {
        let vals: Vec<i64> = prices.iter().map(|p| p.amount.to_minor()).collect();
        let (lo, hi) = (
            *vals.iter().min().expect("nonempty"),
            *vals.iter().max().expect("nonempty"),
        );
        if lo <= 0 {
            return (false, 1.0);
        }
        let ratio = hi as f64 / lo as f64;
        (ratio > 1.0 + SAME_CURRENCY_EPS, ratio)
    };

    let mut effects = Vec::with_capacity(Factor::ALL.len());
    let sid = [("sid", "9001")];
    // The shared baseline (us_a, t0, sid 9001) of the country, city, day
    // and login factors, fetched once per product: a fetch is a pure
    // function of its request.
    let baselines: Vec<Option<Price>> = slugs
        .iter()
        .map(|slug| fetch(slug, probes.us_a.0, probes.us_a.1.country, t0, &sid))
        .collect();
    for factor in Factor::ALL {
        let mut varies = false;
        let mut max_ratio = 1.0f64;
        for (slug, baseline) in slugs.iter().zip(&baselines) {
            let (v, r) = match factor {
                Factor::Country => {
                    let (Some(a), Some(b)) = (
                        *baseline,
                        fetch(slug, probes.foreign.0, probes.foreign.1.country, t0, &sid),
                    ) else {
                        continue;
                    };
                    cross_ratio(a, b, base_day as usize)
                }
                Factor::CityWithinCountry => {
                    let ps: Vec<Price> = [
                        *baseline,
                        fetch(slug, probes.us_b.0, probes.us_b.1.country, t0, &sid),
                        fetch(slug, probes.us_c.0, probes.us_c.1.country, t0, &sid),
                    ]
                    .into_iter()
                    .flatten()
                    .collect();
                    if ps.len() < 3 {
                        continue;
                    }
                    same_ratio(&ps)
                }
                Factor::Session => {
                    let ps: Vec<Price> = (0..SESSIONS_PER_PRODUCT)
                        .filter_map(|k| {
                            let sid_k = format!("77{k}");
                            fetch(
                                slug,
                                probes.us_a.0,
                                probes.us_a.1.country,
                                t0,
                                &[("sid", sid_k.as_str())],
                            )
                        })
                        .collect();
                    if ps.len() < 2 {
                        continue;
                    }
                    same_ratio(&ps)
                }
                Factor::Day => {
                    let (Some(a), Some(b)) = (
                        *baseline,
                        fetch(slug, probes.us_a.0, probes.us_a.1.country, t1, &sid),
                    ) else {
                        continue;
                    };
                    same_ratio(&[a, b])
                }
                Factor::Login => {
                    let (Some(a), Some(b)) = (
                        *baseline,
                        fetch(
                            slug,
                            probes.us_a.0,
                            probes.us_a.1.country,
                            t0,
                            &[("sid", "9001"), ("login", "3")],
                        ),
                    ) else {
                        continue;
                    };
                    same_ratio(&[a, b])
                }
            };
            varies |= v;
            max_ratio = max_ratio.max(r);
        }
        effects.push(FactorEffect {
            factor,
            varies,
            max_ratio,
            products: slugs.len(),
        });
    }
    Some(Attribution {
        domain: domain.to_owned(),
        effects,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_util::Seed;

    fn rig() -> (WebWorld, ProbeSet) {
        let seed = Seed::new(1307);
        let mut world = WebWorld::build(seed, pd_pricing::paper_retailers(seed), 160);
        let mk = |w: &mut WebWorld, c, city: &str| {
            let loc = Location::new(c, city);
            (w.allocate_client(&loc), loc)
        };
        let probes = ProbeSet {
            us_a: mk(&mut world, Country::UnitedStates, "Boston"),
            us_b: mk(&mut world, Country::UnitedStates, "Chicago"),
            us_c: mk(&mut world, Country::UnitedStates, "New York"),
            foreign: mk(&mut world, Country::Finland, "Tampere"),
        };
        (world, probes)
    }

    fn attr(world: &WebWorld, probes: &ProbeSet, domain: &str) -> Attribution {
        attribute(world, probes, domain, 10, 50).expect("domain exists")
    }

    #[test]
    fn digitalrev_is_location_only() {
        let (world, probes) = rig();
        let a = attr(&world, &probes, "www.digitalrev.com");
        assert!(a.effect(Factor::Country).varies);
        assert!((a.effect(Factor::Country).max_ratio - 1.26).abs() < 0.02);
        assert!(!a.effect(Factor::CityWithinCountry).varies);
        assert!(!a.effect(Factor::Session).varies);
        assert!(!a.effect(Factor::Day).varies);
        assert!(!a.effect(Factor::Login).varies);
        assert_eq!(a.varying_factors(), vec![Factor::Country]);
    }

    #[test]
    fn homedepot_varies_by_city() {
        let (world, probes) = rig();
        let a = attr(&world, &probes, "www.homedepot.com");
        assert!(
            a.effect(Factor::CityWithinCountry).varies,
            "city-level pricing must be attributed: {a:?}"
        );
        assert!(!a.effect(Factor::Session).varies);
        assert!(!a.effect(Factor::Login).varies);
    }

    #[test]
    fn amazon_varies_by_session_not_login() {
        let (world, probes) = rig();
        let a = attr(&world, &probes, "www.amazon.com");
        assert!(a.effect(Factor::Session).varies, "{a:?}");
        assert!(!a.effect(Factor::Login).varies, "{a:?}");
        assert!(a.effect(Factor::Country).varies);
        assert!(!a.effect(Factor::CityWithinCountry).varies);
    }

    #[test]
    fn booking_varies_by_day() {
        let (world, probes) = rig();
        let a = attr(&world, &probes, "www.booking.com");
        assert!(a.effect(Factor::Day).varies, "{a:?}");
        assert!(a.effect(Factor::Day).max_ratio < 1.12, "drift is small");
    }

    #[test]
    fn ab_test_retailer_attributed_to_session() {
        let (world, probes) = rig();
        let a = attr(&world, &probes, "www.sears.com");
        assert!(a.effect(Factor::Session).varies, "{a:?}");
        assert!(!a.effect(Factor::Country).varies, "{a:?}");
    }

    #[test]
    fn unknown_domain_is_none() {
        let (world, probes) = rig();
        assert!(attribute(&world, &probes, "gone.example", 5, 50).is_none());
    }
}
