//! Sec. 3.2 dataset summary statistics (the reproduction's "T0").

use pd_sheriff::{Crowd, Measurement, MeasurementStore};
use pd_util::UserId;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// The headline numbers of Sec. 3.2.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DatasetSummary {
    /// Crowd price-check requests (paper: 1 500).
    pub crowd_requests: usize,
    /// Distinct crowd users (paper: 340).
    pub crowd_users: usize,
    /// Distinct user countries (paper: 18).
    pub crowd_countries: usize,
    /// Distinct domains checked by the crowd (paper: 600).
    pub crowd_domains: usize,
    /// Retailers in the crawled dataset (paper: 21).
    pub crawled_retailers: usize,
    /// Total products crawled.
    pub crawled_products: usize,
    /// Crawl days per retailer (paper: 7).
    pub crawl_days: usize,
    /// Extracted prices in the crawled dataset (paper: 188 K).
    pub crawled_prices: usize,
}

/// Streaming accumulator behind [`dataset_summary`]: feed it crowd and
/// crawl measurements one at a time — in any order, e.g. chunk by chunk
/// from an on-disk store — and [`SummaryScan::finish`] yields the same
/// numbers as a whole-store scan. Every statistic is a count, a set
/// cardinality or a sum, so the scan never has to hold the stores.
#[derive(Debug, Default)]
pub struct SummaryScan {
    crowd_requests: usize,
    crowd_users: HashSet<UserId>,
    crowd_domains: HashSet<String>,
    crawl_domains: HashSet<String>,
    crawled_products: HashSet<(String, String)>,
    crawl_days: HashSet<usize>,
    crawled_prices: usize,
}

impl SummaryScan {
    /// An empty scan.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Accounts one measurement from the **raw crowd** store.
    pub fn crowd_row(&mut self, m: &Measurement) {
        self.crowd_requests += 1;
        self.crowd_users.insert(m.user);
        if !self.crowd_domains.contains(m.domain.as_str()) {
            self.crowd_domains.insert(m.domain.clone());
        }
    }

    /// Accounts one measurement from the **crawl** store.
    pub fn crawl_row(&mut self, m: &Measurement) {
        if !self.crawl_domains.contains(m.domain.as_str()) {
            self.crawl_domains.insert(m.domain.clone());
        }
        self.crawled_products
            .insert((m.domain.clone(), m.product_slug.clone()));
        self.crawl_days.insert(m.day());
        self.crawled_prices += m.prices().len();
    }

    /// The Sec. 3.2 headline numbers for everything fed so far.
    #[must_use]
    pub fn finish(self, crowd: &Crowd) -> DatasetSummary {
        DatasetSummary {
            crowd_requests: self.crowd_requests,
            crowd_users: self.crowd_users.len(),
            crowd_countries: crowd.country_count(),
            crowd_domains: self.crowd_domains.len(),
            crawled_retailers: self.crawl_domains.len(),
            crawled_products: self.crawled_products.len(),
            crawl_days: self.crawl_days.len(),
            crawled_prices: self.crawled_prices,
        }
    }
}

/// The Sec. 3.2 facts of one *part* of the data, to be folded with
/// [`SummaryFacts::merge`] in any order. A part holds every row of each
/// domain it contains — one store chunk, one in-memory domain partition
/// — so per-domain distinct counts (domains, crawled products) add up
/// across parts, and only crowd users and crawl days need small sets.
/// Crowd and crawl parts share the type: each fills only its own
/// fields, so folding a stage's crowd facts with its crawl facts gives
/// the whole summary. Facts hold counts and ids, never row strings, so
/// they are cheap to memoise beside a frame.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SummaryFacts {
    crowd_requests: usize,
    crowd_users: HashSet<UserId>,
    crowd_domains: usize,
    crawl_domains: usize,
    crawled_products: usize,
    crawl_days: HashSet<usize>,
    crawled_prices: usize,
}

impl SummaryFacts {
    /// The facts of **raw crowd** rows holding whole domains.
    #[must_use]
    pub fn crowd<'a>(rows: impl IntoIterator<Item = &'a Measurement>) -> Self {
        let mut facts = Self::default();
        let mut domains = HashSet::new();
        for m in rows {
            facts.crowd_requests += 1;
            facts.crowd_users.insert(m.user);
            domains.insert(m.domain.as_str());
        }
        facts.crowd_domains = domains.len();
        facts
    }

    /// The facts of **crawl** rows holding whole domains.
    #[must_use]
    pub fn crawl<'a>(rows: impl IntoIterator<Item = &'a Measurement>) -> Self {
        let mut facts = Self::default();
        let mut domains = HashSet::new();
        let mut products = HashSet::new();
        for m in rows {
            domains.insert(m.domain.as_str());
            products.insert((m.domain.as_str(), m.product_slug.as_str()));
            facts.crawl_days.insert(m.day());
            facts.crawled_prices += m.observations.iter().filter(|o| o.price.is_some()).count();
        }
        facts.crawl_domains = domains.len();
        facts.crawled_products = products.len();
        facts
    }

    /// Folds another part's facts into these (order never matters).
    pub fn merge(&mut self, other: &Self) {
        self.crowd_requests += other.crowd_requests;
        self.crowd_users.extend(&other.crowd_users);
        self.crowd_domains += other.crowd_domains;
        self.crawl_domains += other.crawl_domains;
        self.crawled_products += other.crawled_products;
        self.crawl_days.extend(&other.crawl_days);
        self.crawled_prices += other.crawled_prices;
    }

    /// The Sec. 3.2 headline numbers for every part folded so far — the
    /// same numbers a [`SummaryScan`] over all their rows yields.
    #[must_use]
    pub fn finish(&self, crowd: &Crowd) -> DatasetSummary {
        DatasetSummary {
            crowd_requests: self.crowd_requests,
            crowd_users: self.crowd_users.len(),
            crowd_countries: crowd.country_count(),
            crowd_domains: self.crowd_domains,
            crawled_retailers: self.crawl_domains,
            crawled_products: self.crawled_products,
            crawl_days: self.crawl_days.len(),
            crawled_prices: self.crawled_prices,
        }
    }
}

/// Builds the summary from the two stores and the crowd.
#[must_use]
pub fn dataset_summary(
    crowd: &Crowd,
    crowd_store: &MeasurementStore,
    crawl_store: &MeasurementStore,
) -> DatasetSummary {
    let mut scan = SummaryScan::new();
    for m in crowd_store.records() {
        scan.crowd_row(m);
    }
    for m in crawl_store.records() {
        scan.crawl_row(m);
    }
    scan.finish(crowd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_currency::{Currency, Price};
    use pd_net::clock::SimTime;
    use pd_sheriff::measurement::{Measurement, NoiseTruth};
    use pd_sheriff::{CrowdConfig, PriceObservation};
    use pd_util::{Money, RequestId, Seed, UserId, VantageId};

    fn meas(domain: &str, slug: &str, user: u32, day: u64, n_prices: usize) -> Measurement {
        Measurement {
            request: RequestId::new(0),
            user: UserId::new(user),
            domain: domain.into(),
            product_slug: slug.into(),
            time: SimTime::from_millis(day * 24 * 3_600_000),
            user_price: None,
            observations: (0..n_prices)
                .map(|i| {
                    PriceObservation::ok(
                        VantageId::new(i as u32),
                        Price::new(Money::from_minor(100), Currency::Usd),
                        String::new(),
                    )
                })
                .collect(),
            noise_truth: NoiseTruth::Clean,
        }
    }

    #[test]
    fn summary_counts() {
        let seed = Seed::new(1307);
        let mut world = pd_web::WebWorld::build(seed, pd_pricing::paper_retailers(seed), 160);
        let crowd = pd_sheriff::Crowd::new(
            seed,
            CrowdConfig {
                users: 10,
                checks: 0,
                ..CrowdConfig::default()
            },
            &mut world,
        );
        let mut crowd_store = MeasurementStore::new();
        crowd_store.push(meas("a.example", "x", 1, 3, 14));
        crowd_store.push(meas("b.example", "y", 2, 4, 14));
        crowd_store.push(meas("a.example", "z", 1, 5, 14));
        let mut crawl_store = MeasurementStore::new();
        crawl_store.push(meas("a.example", "x", u32::MAX, 120, 14));
        crawl_store.push(meas("a.example", "x", u32::MAX, 121, 14));
        crawl_store.push(meas("a.example", "w", u32::MAX, 120, 13));

        let s = dataset_summary(&crowd, &crowd_store, &crawl_store);
        assert_eq!(s.crowd_requests, 3);
        assert_eq!(s.crowd_users, 2);
        assert_eq!(s.crowd_domains, 2);
        assert_eq!(s.crawled_retailers, 1);
        assert_eq!(s.crawled_products, 2);
        assert_eq!(s.crawl_days, 2);
        assert_eq!(s.crawled_prices, 14 + 14 + 13);

        // Feeding the same rows through the streaming scan — crawl rows
        // first, crowd rows reversed — lands on identical numbers: the
        // chunked store path depends on this order independence.
        let mut scan = SummaryScan::new();
        for m in crawl_store.records().iter().rev() {
            scan.crawl_row(m);
        }
        for m in crowd_store.records().iter().rev() {
            scan.crowd_row(m);
        }
        assert_eq!(scan.finish(&crowd), s);

        // Per-domain facts, folded in any order, agree too.
        let mut facts = SummaryFacts::crawl(crawl_store.records());
        for domain in ["b.example", "a.example"] {
            let part = crowd_store.records().iter().filter(|m| m.domain == domain);
            facts.merge(&SummaryFacts::crowd(part));
        }
        assert_eq!(facts.finish(&crowd), s);
    }
}
