//! ASCII rendering of skeletal grid summaries.
//!
//! Each skeletal cell becomes one character at its (projected) cell
//! coordinate: core cells are drawn with a density ramp `.:oO@` (quintiles
//! of the summary's population distribution), edge cells as `+`. Rows are
//! emitted with y increasing upward, like a plot.

use sgs_summarize::{CellStatus, Sgs};

/// Density ramp for core cells, light to heavy.
const RAMP: [char; 5] = ['.', ':', 'o', 'O', '@'];

/// Render a summary to a character raster, projecting onto dimensions
/// `(dx, dy)`. Returns an empty string for an empty summary.
///
/// # Panics
/// Panics if `dx` or `dy` is out of range or equal.
pub fn render_ascii(sgs: &Sgs, dx: usize, dy: usize) -> String {
    assert!(dx != dy, "projection dimensions must differ");
    assert!(dx < sgs.dim && dy < sgs.dim, "projection out of range");
    if sgs.cells.is_empty() {
        return String::new();
    }
    let xs: Vec<i32> = sgs.cells.iter().map(|c| c.coord[dx]).collect();
    let ys: Vec<i32> = sgs.cells.iter().map(|c| c.coord[dy]).collect();
    let (x0, x1) = (*xs.iter().min().unwrap(), *xs.iter().max().unwrap());
    let (y0, y1) = (*ys.iter().min().unwrap(), *ys.iter().max().unwrap());
    let width = (x1 - x0 + 1) as usize;
    let height = (y1 - y0 + 1) as usize;

    let max_pop = sgs
        .cells
        .iter()
        .filter(|c| c.status == CellStatus::Core)
        .map(|c| c.population)
        .max()
        .unwrap_or(1)
        .max(1);

    let mut raster = vec![vec![' '; width]; height];
    for cell in &sgs.cells {
        let col = (cell.coord[dx] - x0) as usize;
        let row = (cell.coord[dy] - y0) as usize;
        // When several cells project onto one spot (d > 2), keep the
        // heaviest glyph.
        let glyph = match cell.status {
            CellStatus::Edge => '+',
            CellStatus::Core => {
                let idx = ((cell.population as usize * RAMP.len()) / (max_pop as usize + 1))
                    .min(RAMP.len() - 1);
                RAMP[idx]
            }
        };
        let existing = raster[row][col];
        let rank = |g: char| match g {
            ' ' => 0,
            '+' => 1,
            c => 2 + RAMP.iter().position(|r| *r == c).unwrap_or(0),
        };
        if rank(glyph) > rank(existing) {
            raster[row][col] = glyph;
        }
    }

    // y grows upward: emit top row first.
    let mut out = String::with_capacity((width + 1) * height);
    for row in raster.iter().rev() {
        let line: String = row.iter().collect();
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_core::GridGeometry;
    use sgs_summarize::MemberSet;

    fn strip() -> Sgs {
        let cores: Vec<Box<[f64]>> = (0..12)
            .map(|i| vec![0.05 + i as f64 * 0.3, 0.05].into())
            .collect();
        let edges = vec![Box::from(vec![0.05, 0.9])];
        Sgs::from_members(&MemberSet::new(cores, edges), &GridGeometry::basic(2, 1.0))
    }

    #[test]
    fn renders_cells_as_glyphs() {
        let art = render_ascii(&strip(), 0, 1);
        // One edge cell above the strip → the '+' appears on the top line.
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains('+'), "{art}");
        assert!(lines[1].chars().any(|c| RAMP.contains(&c)), "{art}");
    }

    #[test]
    fn empty_summary_is_empty_string() {
        let empty = Sgs {
            dim: 2,
            side: 1.0,
            level: 0,
            cells: vec![],
        };
        assert_eq!(render_ascii(&empty, 0, 1), "");
    }

    #[test]
    fn raster_covers_bounding_box() {
        let art = render_ascii(&strip(), 0, 1);
        let widths: Vec<usize> = art.lines().map(|l| l.len()).collect();
        // Strip spans ~6 cells in x.
        assert!(*widths.iter().max().unwrap() >= 5);
    }

    #[test]
    #[should_panic(expected = "differ")]
    fn rejects_equal_projection_dims() {
        render_ascii(&strip(), 0, 0);
    }

    #[test]
    fn denser_cells_get_heavier_glyphs() {
        // One very dense cell among light ones.
        let mut cores: Vec<Box<[f64]>> = (0..20).map(|_| vec![0.1, 0.1].into()).collect();
        cores.push(vec![1.5, 0.1].into());
        let sgs = Sgs::from_members(&MemberSet::new(cores, vec![]), &GridGeometry::basic(2, 1.0));
        let art = render_ascii(&sgs, 0, 1);
        assert!(art.contains('@'), "{art}");
    }
}
