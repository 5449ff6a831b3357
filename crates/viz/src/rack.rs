//! The generalizable rack layout view (paper Figs. 2, 4, 6), rendered to SVG
//! (and a terminal-friendly ASCII digest) instead of D3-in-Jupyter.
//!
//! The view is driven entirely by a parsed layout string: rack rows and
//! racks follow the row/column alignments, cabinets stack vertically inside
//! a rack, slots run horizontally inside a cabinet, blades subdivide slots,
//! nodes subdivide blades. Each node cell is coloured by a per-node value
//! (typically a z-score via the Turbo scheme); job nodes can be highlighted
//! and hardware-error nodes outlined, reproducing the annotations of the
//! paper's case studies.

use crate::color::{glyph, zscore_color};
use crate::svg::SvgDoc;
use hpc_telemetry::{Align, MachineSpec};
use std::collections::BTreeSet;

/// |value| mapped to the colour extremes: the view shows z-scores.
const SPAN: f64 = 3.0;

/// Builder for a rack layout view.
#[derive(Clone, Debug)]
pub struct RackView<'a> {
    machine: &'a MachineSpec,
    /// Per-node value (e.g. z-score); `None` renders as unpopulated.
    values: Vec<Option<f64>>,
    /// Nodes drawn with a heavy dark outline (hardware errors).
    outlined: BTreeSet<usize>,
    /// Nodes drawn with a red outline (job allocation / memory issues).
    highlighted: BTreeSet<usize>,
    title: String,
}

impl<'a> RackView<'a> {
    /// Creates a view with all nodes unpopulated.
    pub fn new(machine: &'a MachineSpec) -> RackView<'a> {
        RackView {
            machine,
            values: vec![None; machine.n_nodes],
            outlined: BTreeSet::new(),
            highlighted: BTreeSet::new(),
            title: machine.name.clone(),
        }
    }

    /// Sets per-node values (length ≤ `n_nodes`; missing tail stays empty).
    pub fn with_values(mut self, values: &[f64]) -> Self {
        for (i, &v) in values.iter().enumerate().take(self.values.len()) {
            self.values[i] = Some(v);
        }
        self
    }

    /// Outlines nodes in black (hardware errors in the case studies).
    pub fn with_outlined(mut self, nodes: impl IntoIterator<Item = usize>) -> Self {
        self.outlined.extend(nodes);
        self
    }

    /// Highlights nodes in red (job allocations / memory issues).
    pub fn with_highlighted(mut self, nodes: impl IntoIterator<Item = usize>) -> Self {
        self.highlighted.extend(nodes);
        self
    }

    /// Sets the title line.
    pub fn with_title(mut self, title: impl Into<String>) -> Self {
        self.title = title.into();
        self
    }

    /// Renders the machine to SVG.
    pub fn to_svg(&self) -> String {
        let l = &self.machine.layout;
        let n_rows = l.rows.len();
        let n_racks = l.racks_per_row.len();
        let cab = l.cabinets.len();
        let slots = l.slots.len();
        let blades = l.blades.len();
        let nodes = l.nodes.len();

        // Cell geometry: keep each rack readable but bounded.
        let cell_w: f64 = (140.0 / (slots * blades) as f64).clamp(3.0, 14.0);
        let cell_h: f64 = (140.0 / (cab * nodes) as f64).clamp(3.0, 14.0);
        let rack_w = cell_w * (slots * blades) as f64;
        let rack_h = cell_h * (cab * nodes) as f64;
        let pad = 14.0;
        let label_h = 14.0;
        let legend_h = 40.0;
        let title_h = 24.0;
        let width = pad + (rack_w + pad) * n_racks as f64;
        let height = title_h + (rack_h + label_h + pad) * n_rows as f64 + legend_h;

        let mut doc = SvgDoc::new(width, height);
        doc.text(width / 2.0, 16.0, 13.0, "middle", &self.title);

        for node_idx in 0..self.machine.n_nodes {
            let pos = l.node_position(node_idx);
            // Grid indices relative to range starts.
            let row_i = pos.row - l.rows.lo;
            let rack_i = pos.rack - l.racks_per_row.lo;
            let cab_i = pos.cabinet - l.cabinets.lo;
            let slot_i = pos.slot - l.slots.lo;
            let blade_i = pos.blade - l.blades.lo;
            let node_i = pos.node - l.nodes.lo;

            // Apply alignments.
            let rack_x = match l.rack_row_align {
                Align::RightToLeft => n_racks - 1 - rack_i,
                _ => rack_i,
            };
            let row_y = match l.rack_col_align {
                Align::BottomToTop => n_rows - 1 - row_i,
                _ => row_i,
            };
            let cab_y = match l.cabinet_align {
                Align::BottomToTop => cab - 1 - cab_i,
                _ => cab_i,
            };
            let slot_x = match l.slot_align {
                Align::RightToLeft => slots - 1 - slot_i,
                _ => slot_i,
            };
            let blade_x = match l.blade_align {
                Align::RightToLeft => blades - 1 - blade_i,
                _ => blade_i,
            };

            let x0 = pad + rack_x as f64 * (rack_w + pad);
            let y0 = title_h + row_y as f64 * (rack_h + label_h + pad);
            let x = x0 + (slot_x * blades + blade_x) as f64 * cell_w;
            let y = y0 + (cab_y * nodes + node_i) as f64 * cell_h;

            let fill = match self.values[node_idx] {
                Some(v) => zscore_color(v, SPAN).hex(),
                None => "#dddddd".to_string(),
            };
            let stroke = if self.outlined.contains(&node_idx) {
                Some(("#000000", 1.2))
            } else if self.highlighted.contains(&node_idx) {
                Some(("#cc0000", 1.0))
            } else {
                None
            };
            doc.rect(x, y, cell_w - 0.5, cell_h - 0.5, &fill, stroke);
        }

        // Rack frames and labels.
        for row_i in 0..n_rows {
            for rack_i in 0..n_racks {
                let x0 = pad + rack_i as f64 * (rack_w + pad);
                let y0 = title_h + row_i as f64 * (rack_h + label_h + pad);
                doc.rect(
                    x0 - 1.0,
                    y0 - 1.0,
                    rack_w + 1.5,
                    rack_h + 1.5,
                    "none",
                    Some(("#888888", 0.8)),
                );
                // Label uses the logical (unflipped) coordinates.
                let logical_row = match l.rack_col_align {
                    Align::BottomToTop => n_rows - 1 - row_i,
                    _ => row_i,
                };
                let logical_rack = match l.rack_row_align {
                    Align::RightToLeft => n_racks - 1 - rack_i,
                    _ => rack_i,
                };
                doc.text(
                    x0 + rack_w / 2.0,
                    y0 + rack_h + 11.0,
                    9.0,
                    "middle",
                    &format!(
                        "r{}-{}",
                        l.rows.lo + logical_row,
                        l.racks_per_row.lo + logical_rack
                    ),
                );
            }
        }

        // Legend: a Turbo gradient bar from −span to +span.
        let ly = height - legend_h + 10.0;
        let lw = width * 0.5;
        let lx = (width - lw) / 2.0;
        let steps = 24;
        for s in 0..steps {
            let t = s as f64 / (steps - 1) as f64;
            let c = zscore_color((t * 2.0 - 1.0) * SPAN, SPAN);
            doc.rect(
                lx + t * (lw - lw / steps as f64),
                ly,
                lw / steps as f64 + 0.5,
                10.0,
                &c.hex(),
                None,
            );
        }
        doc.text(lx, ly + 22.0, 9.0, "middle", &format!("{:-.1}", -SPAN));
        doc.text(lx + lw / 2.0, ly + 22.0, 9.0, "middle", "0");
        doc.text(lx + lw, ly + 22.0, 9.0, "middle", &format!("{:+.1}", SPAN));
        doc.finish()
    }

    /// Terminal digest: one glyph per rack (mean of populated node values,
    /// darker = higher), rows of racks top to bottom.
    pub fn to_ascii(&self) -> String {
        let l = &self.machine.layout;
        let n_rows = l.rows.len();
        let n_racks = l.racks_per_row.len();
        let npr = l.nodes_per_rack();
        let mut out = String::new();
        out.push_str(&format!("{}\n", self.title));
        for row in 0..n_rows {
            out.push('|');
            for rack in 0..n_racks {
                let rack_idx = row * n_racks + rack;
                let lo = rack_idx * npr;
                let hi = ((rack_idx + 1) * npr).min(self.machine.n_nodes);
                let vals: Vec<f64> = (lo..hi)
                    .filter_map(|n| self.values.get(n).copied().flatten())
                    .collect();
                if vals.is_empty() {
                    out.push('·');
                } else {
                    let mean = vals.iter().sum::<f64>() / vals.len() as f64;
                    out.push(glyph((mean / SPAN + 1.0) / 2.0));
                }
            }
            out.push_str("|\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_telemetry::theta;

    fn small_machine() -> MachineSpec {
        theta().scaled(64)
    }

    #[test]
    fn svg_has_one_cell_per_node() {
        let m = small_machine();
        let values: Vec<f64> = (0..m.n_nodes).map(|i| (i as f64 / 10.0).sin()).collect();
        let view = RackView::new(&m).with_values(&values);
        let svg = view.to_svg();
        // Node cells + rack frames + legend rects.
        let rects = svg.matches("<rect").count();
        let frames = m.layout.total_racks();
        assert!(rects >= m.n_nodes + frames, "rects {rects}");
        assert!(svg.contains("</svg>"));
    }

    #[test]
    fn unpopulated_nodes_are_grey() {
        let m = small_machine();
        let view = RackView::new(&m);
        assert!(view.to_svg().contains("#dddddd"));
    }

    #[test]
    fn outlines_and_highlights_render() {
        let m = small_machine();
        let values = vec![0.0; m.n_nodes];
        let view = RackView::new(&m)
            .with_values(&values)
            .with_outlined([1])
            .with_highlighted([2]);
        let svg = view.to_svg();
        assert!(svg.contains("#000000"));
        assert!(svg.contains("#cc0000"));
    }

    #[test]
    fn hot_nodes_red_cold_nodes_blue() {
        let m = small_machine();
        let svg = RackView::new(&m).with_values(&[3.0, -3.0]).to_svg();
        let (hot, cold) = (zscore_color(3.0, SPAN), zscore_color(-3.0, SPAN));
        assert!(hot.r > hot.b);
        assert!(cold.b > cold.r);
        assert!(svg.contains(&hot.hex()) && svg.contains(&cold.hex()));
    }

    #[test]
    fn ascii_has_one_row_per_rack_row() {
        let m = small_machine();
        let values = vec![1.0; m.n_nodes];
        let view = RackView::new(&m).with_values(&values).with_title("t");
        let a = view.to_ascii();
        let lines: Vec<&str> = a.lines().collect();
        assert_eq!(lines.len(), 1 + m.layout.rows.len());
        assert_eq!(lines[1].chars().count(), 2 + m.layout.racks_per_row.len());
    }

    #[test]
    fn values_beyond_node_count_ignored() {
        let m = small_machine();
        let too_many = vec![1.0; m.n_nodes + 100];
        let view = RackView::new(&m).with_values(&too_many);
        // Must not panic, and must render.
        assert!(view.to_svg().contains("</svg>"));
    }
}
