//! CSV export of experiment data (for external plotting/analysis).
//!
//! All builders return plain CSV strings with a header row; the
//! registry's figure entries (`crate::experiments`) write one file per
//! figure under `figures/csv/`.

use crate::experiments::StridePoint;
use crate::Scheme;

/// Escapes a CSV field (quotes when it contains a comma/quote/newline).
fn field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

/// CSV of a per-application table: `app,scheme1,scheme2,...`, one row
/// per application, each value `value(app, scheme)` to four decimals
/// (`NaN` when there is none).
///
/// # Examples
///
/// ```
/// use primecache_sim::export::table_csv;
/// use primecache_sim::Scheme;
///
/// let csv = table_csv(&[Scheme::Base, Scheme::Xor], &["tree"], |_, s| {
///     (s == Scheme::Base).then_some(1.0)
/// });
/// assert_eq!(csv, "app,Base,XOR\ntree,1.0000,NaN\n");
/// ```
#[must_use]
pub fn table_csv(
    schemes: &[Scheme],
    names: &[&str],
    value: impl Fn(&str, Scheme) -> Option<f64>,
) -> String {
    let mut out = String::from("app");
    for s in schemes {
        out.push(',');
        out.push_str(&field(s.label()));
    }
    out.push('\n');
    for &name in names {
        out.push_str(&field(name));
        for &s in schemes {
            let v = value(name, s).unwrap_or(f64::NAN);
            out.push_str(&format!(",{v:.4}"));
        }
        out.push('\n');
    }
    out
}

/// CSV of one metric of a stride sweep (Figs. 5/6): `stride,value`.
#[must_use]
pub fn stride_csv(points: &[StridePoint], metric: fn(&StridePoint) -> f64) -> String {
    let mut out = String::from("stride,value\n");
    for p in points {
        out.push_str(&format!("{},{:.6}\n", p.stride, metric(p)));
    }
    out
}

/// CSV of a per-set distribution (Fig. 13): `set,misses`.
#[must_use]
pub fn distribution_csv(dist: &[u64]) -> String {
    let mut out = String::from("set,misses\n");
    for (i, &m) in dist.iter().enumerate() {
        out.push_str(&format!("{i},{m}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_csv_layout() {
        let point = |stride, balance| StridePoint {
            stride,
            balance,
            concentration: 0.0,
        };
        let csv = stride_csv(&[point(1, 1.0), point(2, 3.5)], |p| p.balance);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "stride,value");
        assert_eq!(lines[1], "1,1.000000");
        assert_eq!(lines[2], "2,3.500000");
    }

    #[test]
    fn distribution_csv_layout() {
        let csv = distribution_csv(&[5, 0, 7]);
        assert_eq!(csv, "set,misses\n0,5\n1,0\n2,7\n");
    }

    #[test]
    fn fields_are_escaped() {
        assert_eq!(field("plain"), "plain");
        assert_eq!(field("a,b"), "\"a,b\"");
        assert_eq!(field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }
}
