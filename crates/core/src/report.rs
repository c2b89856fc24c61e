//! The experiment report: every figure's data, renderers, JSON export.

use pd_analysis::ascii;
use pd_analysis::crawl::{Fig3Bar, Fig5Point};
use pd_analysis::crowd::{Fig1Bar, RatioBox};
use pd_analysis::location::{Fig7Box, Fig8Cell, Fig9Box};
use pd_analysis::login::{Fig10, PersonaSummary};
use pd_analysis::strategy::LocationCurve;
use pd_analysis::summary::DatasetSummary;
use pd_analysis::thirdparty::ThirdPartyTable;
use pd_sheriff::cleaning::CleaningReport;
use pd_util::stats::LogBucket;
use serde::{Deserialize, Serialize};

/// One retailer's Fig. 8 grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig8Grid {
    /// Retailer domain.
    pub domain: String,
    /// All off-diagonal cells.
    pub cells: Vec<Fig8Cell>,
}

/// Everything the paper's evaluation section reports, recomputed.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[allow(missing_docs)] // fields are the figures; described in module docs
pub struct Report {
    pub summary: DatasetSummary,
    pub cleaning: CleaningReport,
    pub fig1: Vec<Fig1Bar>,
    pub fig2: Vec<RatioBox>,
    pub fig3: Vec<Fig3Bar>,
    pub fig4: Vec<RatioBox>,
    pub fig5_points: Vec<Fig5Point>,
    pub fig5_envelope: Vec<LogBucket>,
    pub fig6a: Vec<LocationCurve>,
    pub fig6b: Vec<LocationCurve>,
    pub fig7: Vec<Fig7Box>,
    pub fig8a: Fig8Grid,
    pub fig8b: Fig8Grid,
    pub fig8c: Fig8Grid,
    pub fig9: Vec<Fig9Box>,
    pub fig10: Fig10,
    pub persona: PersonaSummary,
    pub third_party: ThirdPartyTable,
    /// Extension (paper Sec. 6 future work): per-retailer factor
    /// attribution over the crawled set.
    pub attribution: Vec<pd_analysis::Attribution>,
}

impl Report {
    /// Sec. 3.2 summary as text.
    #[must_use]
    pub fn render_summary(&self) -> String {
        let s = &self.summary;
        format!(
            "Dataset summary (paper targets in parentheses)\n\
             \x20 crowd requests:   {:>7}  (1500)\n\
             \x20 crowd users:      {:>7}  (340)\n\
             \x20 user countries:   {:>7}  (18)\n\
             \x20 crowd domains:    {:>7}  (600)\n\
             \x20 crawled stores:   {:>7}  (21)\n\
             \x20 crawled products: {:>7}  (~2100)\n\
             \x20 crawl days:       {:>7}  (7)\n\
             \x20 extracted prices: {:>7}  (188K)\n\
             \x20 cleaning: kept {} / dropped {} inconsistent, {} unhealthy\n",
            s.crowd_requests,
            s.crowd_users,
            s.crowd_countries,
            s.crowd_domains,
            s.crawled_retailers,
            s.crawled_products,
            s.crawl_days,
            s.crawled_prices,
            self.cleaning.kept,
            self.cleaning.dropped_inconsistent,
            self.cleaning.dropped_unhealthy,
        )
    }

    /// Fig. 1 rendering.
    #[must_use]
    pub fn render_fig1(&self) -> String {
        ascii::render_fig1(&self.fig1)
    }

    /// Fig. 2 rendering.
    #[must_use]
    pub fn render_fig2(&self) -> String {
        ascii::render_ratio_boxes(
            "Fig.2  Magnitude of price differences per domain (crowd)",
            &self.fig2,
        )
    }

    /// Fig. 3 rendering.
    #[must_use]
    pub fn render_fig3(&self) -> String {
        ascii::render_fig3(&self.fig3)
    }

    /// Fig. 4 rendering.
    #[must_use]
    pub fn render_fig4(&self) -> String {
        ascii::render_ratio_boxes(
            "Fig.4  Magnitude of price variability per domain (crawl)",
            &self.fig4,
        )
    }

    /// Fig. 5 rendering (envelope form).
    #[must_use]
    pub fn render_fig5(&self) -> String {
        ascii::render_fig5(&self.fig5_envelope)
    }

    /// Fig. 6 rendering (both subfigures).
    #[must_use]
    pub fn render_fig6(&self) -> String {
        format!(
            "{}{}",
            ascii::render_fig6("www.digitalrev.com (a)", &self.fig6a),
            ascii::render_fig6("www.energie.it (b)", &self.fig6b)
        )
    }

    /// Fig. 7 rendering.
    #[must_use]
    pub fn render_fig7(&self) -> String {
        ascii::render_fig7(&self.fig7)
    }

    /// Fig. 8 rendering (all three grids).
    #[must_use]
    pub fn render_fig8(&self) -> String {
        format!(
            "{}{}{}",
            ascii::render_fig8(&self.fig8a.domain, &self.fig8a.cells),
            ascii::render_fig8(&self.fig8b.domain, &self.fig8b.cells),
            ascii::render_fig8(&self.fig8c.domain, &self.fig8c.cells)
        )
    }

    /// Fig. 9 rendering.
    #[must_use]
    pub fn render_fig9(&self) -> String {
        ascii::render_fig9(&self.fig9)
    }

    /// Fig. 10 rendering.
    #[must_use]
    pub fn render_fig10(&self) -> String {
        ascii::render_fig10(&self.fig10)
    }

    /// The factor-attribution table (extension).
    #[must_use]
    pub fn render_attribution(&self) -> String {
        use pd_analysis::Factor;
        let mut out = String::from("Factor attribution (extension; paper Sec. 6 future work)\n");
        out.push_str(&format!(
            "{:<30} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
            "retailer", "country", "city", "session", "day", "login"
        ));
        for a in &self.attribution {
            let cell = |f: Factor| {
                let e = a.effect(f);
                if e.varies {
                    format!("x{:.2}", e.max_ratio)
                } else {
                    "-".to_owned()
                }
            };
            out.push_str(&format!(
                "{:<30} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
                a.domain,
                cell(Factor::Country),
                cell(Factor::CityWithinCountry),
                cell(Factor::Session),
                cell(Factor::Day),
                cell(Factor::Login),
            ));
        }
        out
    }

    /// Third-party table + persona line.
    #[must_use]
    pub fn render_tables(&self) -> String {
        let mut out =
            String::from("Third-party presence on crawled retailers (paper: 95/65/80/45/40%)\n");
        for (host, frac) in &self.third_party.rows {
            out.push_str(&format!("  {host:>28}: {:>5.1}%\n", frac * 100.0));
        }
        out.push_str(&format!(
            "Persona experiment: {} differing of {} pairs → null result {}\n",
            self.persona.differing_pairs, self.persona.total_pairs, self.persona.null_result
        ));
        out
    }

    /// Renders every artifact in paper order.
    #[must_use]
    pub fn render_all(&self) -> String {
        [
            self.render_summary(),
            self.render_fig1(),
            self.render_fig2(),
            self.render_fig3(),
            self.render_fig4(),
            self.render_fig5(),
            self.render_fig6(),
            self.render_fig7(),
            self.render_fig8(),
            self.render_fig9(),
            self.render_fig10(),
            self.render_tables(),
            self.render_attribution(),
        ]
        .join("\n")
    }

    /// Full report as JSON (for external plotting).
    ///
    /// # Panics
    ///
    /// Never: the report contains no non-serializable values.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }
}

/// Canonical JSON rendering for a set of labeled reports: a lone
/// unlabeled report renders as [`Report::to_json`]; anything else becomes
/// one object keyed by arm label. This is the single formatter behind
/// `pd run --json`, `pd rerun --json` and the `pd serve` report endpoint,
/// so their outputs stay byte-identical by construction.
#[must_use]
pub fn reports_to_json(reports: &[(String, Report)]) -> String {
    if let [(label, report)] = reports {
        if label.is_empty() {
            return report.to_json();
        }
    }
    let body: Vec<String> = reports
        .iter()
        .map(|(label, r)| format!("{:?}: {}", label, r.to_json()))
        .collect();
    format!("{{\n{}\n}}", body.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, Executor, ExperimentConfig, NullObserver, RunPlan};
    use std::sync::Arc;

    fn report() -> Report {
        let plan = RunPlan::new(ExperimentConfig::small(1307));
        Engine::from_plan(plan, Executor::serial(), Arc::new(NullObserver)).run()
    }

    #[test]
    fn all_renderings_are_nonempty() {
        let r = report();
        for (name, s) in [
            ("summary", r.render_summary()),
            ("fig1", r.render_fig1()),
            ("fig2", r.render_fig2()),
            ("fig3", r.render_fig3()),
            ("fig4", r.render_fig4()),
            ("fig5", r.render_fig5()),
            ("fig6", r.render_fig6()),
            ("fig7", r.render_fig7()),
            ("fig8", r.render_fig8()),
            ("fig9", r.render_fig9()),
            ("fig10", r.render_fig10()),
            ("tables", r.render_tables()),
        ] {
            assert!(s.lines().count() >= 2, "{name} rendering too small:\n{s}");
        }
    }

    #[test]
    fn json_round_trips() {
        let r = report();
        let json = r.to_json();
        let back: Report = serde_json::from_str(&json).unwrap();
        // Integer-valued artifacts round-trip exactly; float-heavy ones
        // only up to JSON text precision (last ulp), so compare structure.
        assert_eq!(back.summary, r.summary);
        assert_eq!(back.fig1, r.fig1);
        assert_eq!(back.fig9.len(), r.fig9.len());
        for (a, b) in back.fig9.iter().zip(&r.fig9) {
            assert_eq!(a.domain, b.domain);
            assert_eq!(a.finland_cheapest, b.finland_cheapest);
            assert!((a.stats.median - b.stats.median).abs() < 1e-9);
        }
    }
}
