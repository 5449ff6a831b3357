//! The in-place, full-resolution mrDMD recursion the tree fit replaced,
//! shared by the suites that check the tree fit against it.
//!
//! Copy the window into a residual buffer, subtract the root, then recurse:
//! each fitted node subtracts its reconstruction from its whole window in
//! place at full resolution before its halves are fitted. How a node's
//! panel is fitted is the caller's [`NodeFit`].

// Each suite uses a subset of the reference.
#![allow(dead_code)]

use mrdmd_suite::prelude::*;

/// `work -= node` over the node's window, column by column with a full
/// complex accumulation per element. `work` column 0 is absolute snapshot
/// `buf_abs0`; the node's rows are buffer-local.
pub fn subtract(node: &ModeSet, work: &mut Mat, buf_abs0: usize, dt: f64) {
    if node.n_modes() == 0 {
        return;
    }
    let lo = node.start.max(buf_abs0);
    let hi = (node.start + node.window).min(buf_abs0 + work.cols());
    let mut weights = vec![c64::ZERO; node.n_modes()];
    for abs in lo..hi {
        let t_rel = (abs - node.start) as f64 * dt;
        for ((wgt, &w), &a) in weights.iter_mut().zip(&node.omegas).zip(&node.amplitudes) {
            *wgt = (w * t_rel).exp() * a;
        }
        for i in 0..node.modes.rows() {
            let mut acc = c64::ZERO;
            for (&phi, &w) in node.modes.row(i).iter().zip(&weights) {
                acc = acc.mul_add(phi, w);
            }
            work[(i, abs - buf_abs0)] -= acc.re;
        }
    }
}

/// How the reference fits one node's decimated panel.
pub type NodeFit = fn(&Mat, &DmdConfig) -> Result<Dmd, CoreError>;

/// A reference subtree fit: the nodes and faults it produced, in order.
pub struct Reference {
    pub nodes: Vec<ModeSet>,
    pub faults: Vec<FitFault>,
    fit: NodeFit,
}

impl Reference {
    /// An empty fit whose nodes are fitted by `fit`.
    pub fn new(fit: NodeFit) -> Reference {
        Reference {
            nodes: Vec::new(),
            faults: Vec::new(),
            fit,
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub fn fit_tree(
        &mut self,
        work: &mut Mat,
        lo: usize,
        hi: usize,
        buf_abs0: usize,
        row_offset: usize,
        cfg: &MrDmdConfig,
        level: usize,
    ) {
        let w = hi.saturating_sub(lo);
        if w < 2 || work.rows() == 0 {
            return;
        }
        let start_abs = buf_abs0 + lo;
        let step = cfg.subsample_step(w);
        let sub = work.subsample_cols_range(lo, hi, step);
        if sub.cols() >= 2 {
            let salt = ((level as u64) << 48) ^ ((start_abs as u64) << 16) ^ w as u64;
            let dmd_cfg = DmdConfig {
                dt: cfg.dt * step as f64,
                rank: cfg.rank,
                strategy: cfg.strategy.for_node(salt),
            };
            match (self.fit)(&sub, &dmd_cfg) {
                Ok(d) => {
                    let cutoff = cfg.slow_cutoff_hz(w);
                    let slow: Vec<usize> = d
                        .frequencies()
                        .iter()
                        .enumerate()
                        .filter(|(_, &f)| f <= cutoff)
                        .map(|(i, _)| i)
                        .collect();
                    if !slow.is_empty() {
                        let max_re = cfg.max_window_growth.ln() / (w as f64 * cfg.dt);
                        let omegas = slow
                            .iter()
                            .map(|&i| {
                                let o = d.omegas[i];
                                if o.re > max_re {
                                    c64::new(max_re, o.im)
                                } else {
                                    o
                                }
                            })
                            .collect();
                        let mut node = ModeSet {
                            level,
                            start: start_abs,
                            window: w,
                            step,
                            row_offset: 0,
                            modes: d.modes.select_cols(&slow),
                            lambdas: slow.iter().map(|&i| d.lambdas[i]).collect(),
                            omegas,
                            amplitudes: slow.iter().map(|&i| d.amplitudes[i]).collect(),
                        };
                        subtract(&node, work, buf_abs0, cfg.dt);
                        node.row_offset = row_offset;
                        self.nodes.push(node);
                    }
                }
                Err(e) => self.faults.push(FitFault {
                    level,
                    start: start_abs,
                    window: w,
                    row_offset,
                    at_step: 0,
                    cause: e.to_string(),
                }),
            }
        }
        self.fit_halves(work, lo, hi, buf_abs0, row_offset, cfg, level);
    }

    #[allow(clippy::too_many_arguments)]
    pub fn fit_halves(
        &mut self,
        work: &mut Mat,
        lo: usize,
        hi: usize,
        buf_abs0: usize,
        row_offset: usize,
        cfg: &MrDmdConfig,
        parent_level: usize,
    ) {
        let w = hi.saturating_sub(lo);
        if parent_level >= cfg.max_levels || w / 2 < cfg.min_window {
            return;
        }
        let mid = lo + w / 2;
        self.fit_tree(work, lo, mid, buf_abs0, row_offset, cfg, parent_level + 1);
        self.fit_tree(work, mid, hi, buf_abs0, row_offset, cfg, parent_level + 1);
    }

    /// Stamps every fault with the stream step the streaming layer records.
    pub fn at_step(mut self, step: usize) -> Reference {
        for f in &mut self.faults {
            f.at_step = step;
        }
        self
    }

    /// The subtree below `root` (levels ≥ 2) over all of `data`, `root`'s
    /// rows being `data`'s.
    pub fn below(
        mut self,
        root: &ModeSet,
        data: &Mat,
        abs0: usize,
        row_offset: usize,
        cfg: &MrDmdConfig,
    ) -> Reference {
        let mut work = data.clone();
        subtract(root, &mut work, abs0, cfg.dt);
        self.fit_halves(&mut work, 0, data.cols(), abs0, row_offset, cfg, 1);
        self
    }

    /// The partial-fit flush: a level-2 subtree over the whole window.
    pub fn window(
        mut self,
        root: &ModeSet,
        window: &Mat,
        abs0: usize,
        cfg: &MrDmdConfig,
    ) -> Reference {
        let mut work = window.clone();
        subtract(root, &mut work, abs0, cfg.dt);
        self.fit_tree(&mut work, 0, window.cols(), abs0, 0, cfg, 2);
        self
    }
}
