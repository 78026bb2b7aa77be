//! Dependency-free SVG chart emission, so the harness regenerates
//! *figures*, not just CSV series: line charts (Fig. 1, 3, 9, 10),
//! log-log survival plots (Fig. 5, 7), and heatmaps (Fig. 8).
//!
//! The output is plain SVG 1.1 — every plot is a self-contained file
//! that renders in any browser.

use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Canvas geometry shared by all chart kinds.
const WIDTH: f64 = 760.0;
const HEIGHT: f64 = 480.0;
const MARGIN_L: f64 = 70.0;
const MARGIN_R: f64 = 150.0;
const MARGIN_T: f64 = 40.0;
const MARGIN_B: f64 = 55.0;

/// Line colours cycled across series.
const PALETTE: [&str; 8] = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
];

/// One named line of `(x, y)` points.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// The points, in drawing order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series.
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series {
            label: label.into(),
            points,
        }
    }
}

/// Axis scaling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Linear axis.
    Linear,
    /// Base-10 logarithmic axis (positive data only).
    Log,
}

fn transform(v: f64, scale: Scale) -> f64 {
    match scale {
        Scale::Linear => v,
        Scale::Log => v.max(f64::MIN_POSITIVE).log10(),
    }
}

fn fmt_tick(v: f64, scale: Scale) -> String {
    let raw = match scale {
        Scale::Linear => v,
        Scale::Log => 10f64.powf(v),
    };
    if raw != 0.0 && (raw.abs() >= 10_000.0 || raw.abs() < 0.01) {
        format!("{raw:.1e}")
    } else if raw == raw.trunc() {
        format!("{raw}")
    } else {
        format!("{raw:.2}")
    }
}

/// Renders a multi-series chart with the requested axis scales.
///
/// # Panics
/// Panics when every series is empty, or log scaling meets
/// non-positive data.
pub fn line_chart(
    title: &str,
    x_label: &str,
    y_label: &str,
    series: &[Series],
    x_scale: Scale,
    y_scale: Scale,
) -> String {
    let all: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|s| s.points.iter().copied())
        .map(|(x, y)| {
            if x_scale == Scale::Log {
                assert!(x > 0.0, "log x-axis needs positive data, got {x}");
            }
            if y_scale == Scale::Log {
                assert!(y > 0.0, "log y-axis needs positive data, got {y}");
            }
            (transform(x, x_scale), transform(y, y_scale))
        })
        .collect();
    assert!(!all.is_empty(), "chart with no data");
    let (mut x_min, mut x_max) = bounds(all.iter().map(|p| p.0));
    let (mut y_min, mut y_max) = bounds(all.iter().map(|p| p.1));
    if x_min == x_max {
        x_min -= 0.5;
        x_max += 0.5;
    }
    if y_min == y_max {
        y_min -= 0.5;
        y_max += 0.5;
    }
    let px = |x: f64| MARGIN_L + (x - x_min) / (x_max - x_min) * (WIDTH - MARGIN_L - MARGIN_R);
    let py =
        |y: f64| HEIGHT - MARGIN_B - (y - y_min) / (y_max - y_min) * (HEIGHT - MARGIN_T - MARGIN_B);

    let mut svg = header(title);
    axes(&mut svg, x_label, y_label);
    // ticks: 5 per axis
    for i in 0..=4 {
        let fx = x_min + (x_max - x_min) * i as f64 / 4.0;
        let fy = y_min + (y_max - y_min) * i as f64 / 4.0;
        let _ = writeln!(
            svg,
            r#"<text x="{:.1}" y="{:.1}" font-size="11" text-anchor="middle">{}</text>"#,
            px(fx),
            HEIGHT - MARGIN_B + 18.0,
            fmt_tick(fx, x_scale)
        );
        let _ = writeln!(
            svg,
            r#"<text x="{:.1}" y="{:.1}" font-size="11" text-anchor="end">{}</text>"#,
            MARGIN_L - 6.0,
            py(fy) + 4.0,
            fmt_tick(fy, y_scale)
        );
        let _ = writeln!(
            svg,
            r##"<line x1="{:.1}" y1="{:.1}" x2="{:.1}" y2="{:.1}" stroke="#dddddd"/>"##,
            px(fx),
            MARGIN_T,
            px(fx),
            HEIGHT - MARGIN_B
        );
        let _ = writeln!(
            svg,
            r##"<line x1="{:.1}" y1="{:.1}" x2="{:.1}" y2="{:.1}" stroke="#dddddd"/>"##,
            MARGIN_L,
            py(fy),
            WIDTH - MARGIN_R,
            py(fy)
        );
    }
    for (i, s) in series.iter().enumerate() {
        let color = PALETTE[i % PALETTE.len()];
        let mut path = String::new();
        for &(x, y) in &s.points {
            let (tx, ty) = (transform(x, x_scale), transform(y, y_scale));
            let _ = write!(path, "{:.1},{:.1} ", px(tx), py(ty));
        }
        let _ = writeln!(
            svg,
            r#"<polyline fill="none" stroke="{color}" stroke-width="1.8" points="{path}"/>"#
        );
        // legend
        let ly = MARGIN_T + 16.0 * i as f64;
        let _ = writeln!(
            svg,
            r#"<line x1="{:.1}" y1="{ly:.1}" x2="{:.1}" y2="{ly:.1}" stroke="{color}" stroke-width="3"/>"#,
            WIDTH - MARGIN_R + 10.0,
            WIDTH - MARGIN_R + 32.0,
        );
        let _ = writeln!(
            svg,
            r#"<text x="{:.1}" y="{:.1}" font-size="11">{}</text>"#,
            WIDTH - MARGIN_R + 38.0,
            ly + 4.0,
            escape(&s.label)
        );
    }
    svg.push_str("</svg>\n");
    svg
}

/// Renders a heatmap over a rectangular grid: `values[i][j]` is the cell
/// at `xs[i], ys[j]`, coloured from blue (min) to red (max).
///
/// # Panics
/// Panics on empty or ragged input.
pub fn heatmap(
    title: &str,
    x_label: &str,
    y_label: &str,
    xs: &[f64],
    ys: &[f64],
    values: &[Vec<f64>],
) -> String {
    assert!(!xs.is_empty() && !ys.is_empty(), "empty heatmap grid");
    assert_eq!(values.len(), xs.len(), "row count mismatch");
    assert!(
        values.iter().all(|row| row.len() == ys.len()),
        "ragged heatmap rows"
    );
    let flat: Vec<f64> = values.iter().flatten().copied().collect();
    let (v_min, v_max) = bounds(flat.iter().copied());
    let span = (v_max - v_min).max(f64::MIN_POSITIVE);
    let cell_w = (WIDTH - MARGIN_L - MARGIN_R) / xs.len() as f64;
    let cell_h = (HEIGHT - MARGIN_T - MARGIN_B) / ys.len() as f64;

    let mut svg = header(title);
    axes(&mut svg, x_label, y_label);
    for (i, _x) in xs.iter().enumerate() {
        for (j, _y) in ys.iter().enumerate() {
            let t = (values[i][j] - v_min) / span;
            let r = (255.0 * t) as u8;
            let b = (255.0 * (1.0 - t)) as u8;
            let g = (90.0 * (1.0 - (2.0 * t - 1.0).abs())) as u8;
            let _ = writeln!(
                svg,
                r##"<rect x="{:.1}" y="{:.1}" width="{:.1}" height="{:.1}" fill="#{r:02x}{g:02x}{b:02x}"/>"##,
                MARGIN_L + i as f64 * cell_w,
                HEIGHT - MARGIN_B - (j + 1) as f64 * cell_h,
                cell_w + 0.5,
                cell_h + 0.5,
            );
        }
    }
    // extremal tick labels
    let _ = writeln!(
        svg,
        r#"<text x="{MARGIN_L:.1}" y="{:.1}" font-size="11" text-anchor="middle">{}</text>"#,
        HEIGHT - MARGIN_B + 18.0,
        xs[0]
    );
    let _ = writeln!(
        svg,
        r#"<text x="{:.1}" y="{:.1}" font-size="11" text-anchor="middle">{}</text>"#,
        WIDTH - MARGIN_R,
        HEIGHT - MARGIN_B + 18.0,
        xs[xs.len() - 1]
    );
    let _ = writeln!(
        svg,
        r#"<text x="{:.1}" y="{:.1}" font-size="11" text-anchor="end">{}</text>"#,
        MARGIN_L - 6.0,
        HEIGHT - MARGIN_B,
        ys[0]
    );
    let _ = writeln!(
        svg,
        r#"<text x="{:.1}" y="{MARGIN_T:.1}" font-size="11" text-anchor="end">{}</text>"#,
        MARGIN_L - 6.0,
        ys[ys.len() - 1]
    );
    let _ = writeln!(
        svg,
        r#"<text x="{:.1}" y="{:.1}" font-size="11">min {v_min:.3} (blue) .. max {v_max:.3} (red)</text>"#,
        WIDTH - MARGIN_R + 8.0,
        MARGIN_T + 10.0
    );
    svg.push_str("</svg>\n");
    svg
}

fn bounds(values: impl Iterator<Item = f64>) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    assert!(lo.is_finite() && hi.is_finite(), "no finite data to plot");
    (lo, hi)
}

fn header(title: &str) -> String {
    let mut svg = String::new();
    let _ = writeln!(
        svg,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">"#
    );
    let _ = writeln!(
        svg,
        r#"<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>"#
    );
    let _ = writeln!(
        svg,
        r#"<text x="{:.1}" y="22" font-size="15" text-anchor="middle" font-weight="bold">{}</text>"#,
        WIDTH / 2.0,
        escape(title)
    );
    svg
}

fn axes(svg: &mut String, x_label: &str, y_label: &str) {
    let _ = writeln!(
        svg,
        r#"<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{:.1}" height="{:.1}" fill="none" stroke="black"/>"#,
        WIDTH - MARGIN_L - MARGIN_R,
        HEIGHT - MARGIN_T - MARGIN_B
    );
    let _ = writeln!(
        svg,
        r#"<text x="{:.1}" y="{:.1}" font-size="13" text-anchor="middle">{}</text>"#,
        (MARGIN_L + WIDTH - MARGIN_R) / 2.0,
        HEIGHT - 12.0,
        escape(x_label)
    );
    let _ = writeln!(
        svg,
        r#"<text x="16" y="{:.1}" font-size="13" text-anchor="middle" transform="rotate(-90 16 {:.1})">{}</text>"#,
        (MARGIN_T + HEIGHT - MARGIN_B) / 2.0,
        (MARGIN_T + HEIGHT - MARGIN_B) / 2.0,
        escape(y_label)
    );
}

fn escape(text: &str) -> String {
    text.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Writes an SVG under `dir/<name>.svg` and returns the path.
///
/// # Errors
/// Propagates filesystem errors.
pub fn save_svg(dir: impl AsRef<Path>, name: &str, svg: &str) -> std::io::Result<PathBuf> {
    let dir = dir.as_ref();
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.svg"));
    let mut f = fs::File::create(&path)?;
    f.write_all(svg.as_bytes())?;
    Ok(path)
}

/// Saves the SVG under `dir` and reports its path into a string buffer
/// (see [`crate::report::emit_to`]).
pub fn emit_svg_to(buf: &mut String, dir: &Path, name: &str, svg: &str) {
    match save_svg(dir, name, svg) {
        Ok(path) => {
            let _ = writeln!(buf, "[svg] {}", path.display());
        }
        Err(e) => {
            let _ = writeln!(buf, "[svg] write failed: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_series() -> Vec<Series> {
        vec![
            Series::new("a", vec![(0.0, 1.0), (1.0, 2.0), (2.0, 1.5)]),
            Series::new("b", vec![(0.0, 3.0), (2.0, 0.5)]),
        ]
    }

    #[test]
    fn line_chart_is_wellformed_svg() {
        let svg = line_chart(
            "t",
            "x",
            "y",
            &simple_series(),
            Scale::Linear,
            Scale::Linear,
        );
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert!(svg.contains(">a<") && svg.contains(">b<"));
        // balanced tags for the elements we emit
        assert_eq!(svg.matches("<svg").count(), svg.matches("</svg>").count());
    }

    #[test]
    fn log_scale_positions_decades_evenly() {
        let s = vec![Series::new(
            "p",
            vec![(1.0, 1.0), (10.0, 10.0), (100.0, 100.0)],
        )];
        let svg = line_chart("t", "x", "y", &s, Scale::Log, Scale::Log);
        // extract the polyline points and check equal spacing in x
        let pts_line = svg
            .lines()
            .find(|l| l.contains("<polyline"))
            .expect("polyline exists");
        let coords: Vec<f64> = pts_line
            .split("points=\"")
            .nth(1)
            .unwrap()
            .trim_end_matches("\"/>")
            .split_whitespace()
            .map(|p| p.split(',').next().unwrap().parse().unwrap())
            .collect();
        let d1 = coords[1] - coords[0];
        let d2 = coords[2] - coords[1];
        assert!(
            (d1 - d2).abs() < 0.5,
            "log decades not evenly spaced: {d1} vs {d2}"
        );
    }

    #[test]
    #[should_panic(expected = "positive data")]
    fn log_scale_rejects_nonpositive() {
        let s = vec![Series::new("p", vec![(0.0, 1.0)])];
        line_chart("t", "x", "y", &s, Scale::Log, Scale::Linear);
    }

    #[test]
    fn heatmap_covers_grid() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [10.0, 20.0];
        let values = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let svg = heatmap("h", "x", "y", &xs, &ys, &values);
        assert_eq!(svg.matches("<rect").count(), 2 + 6); // bg + frame + 6 cells
        assert!(svg.contains("min 1.000"));
        assert!(svg.contains("max 6.000"));
    }

    #[test]
    fn titles_are_escaped() {
        let s = vec![Series::new("a<b", vec![(0.0, 1.0), (1.0, 2.0)])];
        let svg = line_chart("x < y & z", "x", "y", &s, Scale::Linear, Scale::Linear);
        assert!(svg.contains("x &lt; y &amp; z"));
        assert!(svg.contains("a&lt;b"));
    }

    #[test]
    fn save_svg_writes_file() {
        let dir = std::env::temp_dir().join("harmony_plot_test");
        let svg = line_chart(
            "t",
            "x",
            "y",
            &simple_series(),
            Scale::Linear,
            Scale::Linear,
        );
        let path = save_svg(&dir, "unit", &svg).unwrap();
        assert!(std::fs::read_to_string(&path).unwrap().starts_with("<svg"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_heatmap_rejected() {
        heatmap("h", "x", "y", &[1.0, 2.0], &[1.0], &[vec![1.0], vec![]]);
    }
}
