//! Plain-text rendering: ASCII tables and dot plots for the repro output.

/// Renders an ASCII table with a header row.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let sep: String = widths
        .iter()
        .map(|w| "-".repeat(w + 2))
        .collect::<Vec<_>>()
        .join("+");
    let render_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!(" {:<width$} ", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("|")
    };
    out.push_str(&render_row(
        &headers.iter().map(|h| (*h).to_owned()).collect::<Vec<_>>(),
    ));
    out.push('\n');
    out.push_str(&sep);
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row));
        out.push('\n');
    }
    out
}

/// Renders a horizontal bar chart (one row per label), scaled to `width`
/// characters for the maximum value.
pub fn bars(items: &[(String, f64)], width: usize) -> String {
    let max = items.iter().map(|(_, v)| *v).fold(f64::MIN, f64::max);
    let label_width = items.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (label, value) in items {
        let filled = if max > 0.0 {
            ((value / max) * width as f64).round() as usize
        } else {
            0
        };
        out.push_str(&format!(
            "{:<label_width$} |{}{} {:.3}\n",
            label,
            "#".repeat(filled),
            " ".repeat(width.saturating_sub(filled)),
            value,
        ));
    }
    out
}

/// Renders an x/y series as a coarse scatter plot with log-x buckets —
/// enough to convey the shape of the paper's log-axis figures in a
/// terminal.
pub fn scatter_logx(points: &[(f64, f64)], rows: usize, cols: usize) -> String {
    if points.is_empty() {
        return "(no data)\n".to_owned();
    }
    let xs: Vec<f64> = points.iter().map(|(x, _)| x.max(1e-12).ln()).collect();
    let ys: Vec<f64> = points.iter().map(|(_, y)| *y).collect();
    let (xmin, xmax) = bounds(&xs);
    let (ymin, ymax) = bounds(&ys);
    let mut grid = vec![vec![b' '; cols]; rows];
    for (x, y) in xs.iter().zip(&ys) {
        let cx = scale(*x, xmin, xmax, cols);
        let cy = rows - 1 - scale(*y, ymin, ymax, rows);
        grid[cy][cx] = b'*';
    }
    let mut out = String::new();
    for (i, row) in grid.iter().enumerate() {
        let ylabel = if i == 0 {
            format!("{ymax:>9.1}")
        } else if i == rows - 1 {
            format!("{ymin:>9.1}")
        } else {
            " ".repeat(9)
        };
        out.push_str(&format!("{ylabel} |{}\n", String::from_utf8_lossy(row)));
    }
    out.push_str(&format!(
        "{} +{}\n{} {:<.3e}{:>width$.3e}\n",
        " ".repeat(9),
        "-".repeat(cols),
        " ".repeat(9),
        xmin.exp(),
        xmax.exp(),
        width = cols.saturating_sub(8),
    ));
    out
}

fn bounds(values: &[f64]) -> (f64, f64) {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if (max - min).abs() < 1e-12 {
        (min - 0.5, max + 0.5)
    } else {
        (min, max)
    }
}

fn scale(v: f64, min: f64, max: f64, cells: usize) -> usize {
    let t = (v - min) / (max - min);
    ((t * (cells - 1) as f64).round() as usize).min(cells - 1)
}

/// Formats a float as a fixed 3-decimal cell.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let out = table(
            &["Approach", "Coverage"],
            &[
                vec!["Majority Vote".into(), "0.483".into()],
                vec!["Surveyor".into(), "0.966".into()],
            ],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("Approach"));
        assert!(lines[2].contains("Majority Vote"));
        // All rows have the same width.
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    fn bars_scale_to_max() {
        let out = bars(&[("a".into(), 1.0), ("bb".into(), 2.0)], 10);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("##########"));
    }

    #[test]
    fn scatter_handles_degenerate_input() {
        assert!(scatter_logx(&[], 5, 20).contains("no data"));
        let out = scatter_logx(&[(10.0, 1.0)], 5, 20);
        assert!(out.contains('*'));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(0.12345), "0.123");
    }
}
