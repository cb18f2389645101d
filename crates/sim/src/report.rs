//! Plain-text table rendering for the experiment registry and the CLI.

/// Renders a table with a header row, aligning columns by width.
///
/// # Examples
///
/// ```
/// use primecache_sim::report::render_table;
///
/// let s = render_table(
///     &["app", "speedup"],
///     &[vec!["tree".into(), "2.34".into()]],
/// );
/// assert!(s.contains("tree"));
/// assert!(s.lines().count() >= 3);
/// ```
#[must_use]
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            line.push_str(&format!(" {:<w$} |", c, w = widths[i]));
        }
        line.push('\n');
        line
    };
    let header_cells: Vec<String> = header.iter().map(|s| (*s).to_owned()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    let mut sep = String::from("|");
    for w in &widths {
        sep.push_str(&format!("{}|", "-".repeat(w + 2)));
    }
    sep.push('\n');
    out.push_str(&sep);
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Renders a numeric series as a one-line unicode sparkline (8 levels),
/// used to sketch the Fig. 5/6 curves in a terminal.
///
/// Values are scaled between `lo` and `hi` (values outside clamp).
///
/// # Examples
///
/// ```
/// use primecache_sim::report::sparkline;
///
/// let s = sparkline(&[0.0, 0.5, 1.0], 0.0, 1.0);
/// assert_eq!(s.chars().count(), 3);
/// ```
#[must_use]
pub fn sparkline(values: &[f64], lo: f64, hi: f64) -> String {
    const LEVELS: [char; 8] = [
        '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}',
        '\u{2588}',
    ];
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    values
        .iter()
        .map(|&v| {
            let t = ((v - lo) / span).clamp(0.0, 1.0);
            LEVELS[((t * 7.0).round() as usize).min(7)]
        })
        .collect()
}

/// Formats a float with 2 decimals (the paper's usual precision).
#[must_use]
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a float with 3 decimals.
#[must_use]
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_align() {
        let t = render_table(
            &["a", "long-header"],
            &[
                vec!["xxxxxxxx".into(), "1".into()],
                vec!["y".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        let widths: Vec<usize> = lines.iter().map(|l| l.len()).collect();
        assert!(widths.iter().all(|&w| w == widths[0]), "{t}");
    }

    #[test]
    fn formats() {
        assert_eq!(f2(1.275), "1.27"); // banker's-ish display rounding
        assert_eq!(f3(0.1), "0.100");
    }
    #[test]
    fn sparkline_levels() {
        let s = sparkline(&[0.0, 1.0], 0.0, 1.0);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars[0], '\u{2581}');
        assert_eq!(chars[1], '\u{2588}');
    }

    #[test]
    fn sparkline_clamps_out_of_range() {
        let s = sparkline(&[-5.0, 50.0], 0.0, 1.0);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars[0], '\u{2581}');
        assert_eq!(chars[1], '\u{2588}');
    }

    #[test]
    fn sparkline_empty_and_flat() {
        assert_eq!(sparkline(&[], 0.0, 1.0), "");
        let flat = sparkline(&[2.0, 2.0, 2.0], 2.0, 2.0);
        assert_eq!(flat.chars().count(), 3);
    }
}
