//! SVG export of skeletal grid summaries.
//!
//! Renders one or more SGSs into a standalone SVG document: skeletal cells
//! as rectangles (core cells filled with opacity scaled by population,
//! edge cells outlined), and the connection graph as line segments between
//! cell centers. Multiple summaries get distinct hues — the side-by-side
//! view an analyst uses to compare a query cluster with its matches.

use sgs_summarize::{CellStatus, Sgs};

/// Rendering options.
#[derive(Clone, Debug)]
pub struct SvgStyle {
    /// Pixels per grid cell.
    pub cell_px: f64,
    /// Canvas margin in pixels.
    pub margin: f64,
    /// Whether to draw connection segments.
    pub draw_connections: bool,
}

impl Default for SvgStyle {
    fn default() -> Self {
        SvgStyle {
            cell_px: 12.0,
            margin: 10.0,
            draw_connections: true,
        }
    }
}

/// Hues assigned to successive summaries.
const HUES: [&str; 6] = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf",
];

/// Render summaries (projected onto dimensions `dx`, `dy`) into an SVG
/// document string.
///
/// # Panics
/// Panics if `dx == dy` or either exceeds a summary's dimensionality.
pub fn render_svg(summaries: &[&Sgs], dx: usize, dy: usize, style: &SvgStyle) -> String {
    assert!(dx != dy, "projection dimensions must differ");
    let mut x0 = i32::MAX;
    let mut x1 = i32::MIN;
    let mut y0 = i32::MAX;
    let mut y1 = i32::MIN;
    for sgs in summaries {
        assert!(dx < sgs.dim && dy < sgs.dim, "projection out of range");
        for c in &sgs.cells {
            x0 = x0.min(c.coord[dx]);
            x1 = x1.max(c.coord[dx]);
            y0 = y0.min(c.coord[dy]);
            y1 = y1.max(c.coord[dy]);
        }
    }
    if x0 > x1 {
        // No cells at all.
        return String::from(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"1\" height=\"1\"/>",
        );
    }
    let s = style.cell_px;
    let m = style.margin;
    let width = (x1 - x0 + 1) as f64 * s + 2.0 * m;
    let height = (y1 - y0 + 1) as f64 * s + 2.0 * m;
    // SVG y grows downward; flip so larger grid y is higher.
    let px = |cx: i32| m + (cx - x0) as f64 * s;
    let py = |cy: i32| m + (y1 - cy) as f64 * s;

    let mut out = String::with_capacity(4096);
    out.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width:.0}\" \
         height=\"{height:.0}\" viewBox=\"0 0 {width:.0} {height:.0}\">\n"
    ));
    for (si, sgs) in summaries.iter().enumerate() {
        let hue = HUES[si % HUES.len()];
        let max_pop = sgs
            .cells
            .iter()
            .map(|c| c.population)
            .max()
            .unwrap_or(1)
            .max(1) as f64;
        out.push_str(&format!("  <g data-summary=\"{si}\">\n"));
        for cell in &sgs.cells {
            let x = px(cell.coord[dx]);
            let y = py(cell.coord[dy]);
            match cell.status {
                CellStatus::Core => {
                    let opacity = 0.25 + 0.75 * (cell.population as f64 / max_pop);
                    out.push_str(&format!(
                        "    <rect x=\"{x:.1}\" y=\"{y:.1}\" width=\"{s:.1}\" \
                         height=\"{s:.1}\" fill=\"{hue}\" fill-opacity=\"{opacity:.2}\" \
                         stroke=\"{hue}\"/>\n"
                    ));
                }
                CellStatus::Edge => {
                    out.push_str(&format!(
                        "    <rect x=\"{x:.1}\" y=\"{y:.1}\" width=\"{s:.1}\" \
                         height=\"{s:.1}\" fill=\"none\" stroke=\"{hue}\" \
                         stroke-dasharray=\"2,2\"/>\n"
                    ));
                }
            }
        }
        if style.draw_connections {
            for cell in &sgs.cells {
                let cx = px(cell.coord[dx]) + s / 2.0;
                let cy = py(cell.coord[dy]) + s / 2.0;
                for &j in &cell.connections {
                    let other = &sgs.cells[j as usize];
                    let ox = px(other.coord[dx]) + s / 2.0;
                    let oy = py(other.coord[dy]) + s / 2.0;
                    out.push_str(&format!(
                        "    <line x1=\"{cx:.1}\" y1=\"{cy:.1}\" x2=\"{ox:.1}\" \
                         y2=\"{oy:.1}\" stroke=\"{hue}\" stroke-opacity=\"0.5\"/>\n"
                    ));
                }
            }
        }
        out.push_str("  </g>\n");
    }
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_core::GridGeometry;
    use sgs_summarize::MemberSet;

    fn sample() -> Sgs {
        let cores: Vec<Box<[f64]>> = (0..10)
            .map(|i| vec![0.05 + i as f64 * 0.3, 0.05].into())
            .collect();
        Sgs::from_members(&MemberSet::new(cores, vec![]), &GridGeometry::basic(2, 1.0))
    }

    #[test]
    fn produces_wellformed_svg() {
        let s = sample();
        let svg = render_svg(&[&s], 0, 1, &SvgStyle::default());
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<rect").count(), s.volume());
        assert!(svg.contains("<line"), "connections drawn");
    }

    #[test]
    fn connection_drawing_is_optional() {
        let s = sample();
        let style = SvgStyle {
            draw_connections: false,
            ..SvgStyle::default()
        };
        let svg = render_svg(&[&s], 0, 1, &style);
        assert!(!svg.contains("<line"));
    }

    #[test]
    fn multiple_summaries_get_groups() {
        let a = sample();
        let b = sample();
        let svg = render_svg(&[&a, &b], 0, 1, &SvgStyle::default());
        assert_eq!(svg.matches("<g data-summary=").count(), 2);
        assert!(svg.contains(HUES[0]));
        assert!(svg.contains(HUES[1]));
    }

    #[test]
    fn empty_input_yields_placeholder() {
        let svg = render_svg(&[], 0, 1, &SvgStyle::default());
        assert!(svg.contains("<svg"));
    }
}
