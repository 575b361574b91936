//! The bit-energy model for on-chip communication.
//!
//! Following the energy-aware-mapping formulation of \[20\], the energy to
//! move one bit from tile `a` to tile `b` over an `h`-hop XY route is
//!
//! ```text
//! E_bit(a, b) = (h + 1) · E_Rbit + h · E_Lbit
//! ```
//!
//! — the bit traverses `h+1` routers (source and destination included)
//! and `h` inter-tile links. All mapping, packet-size and scheduling
//! optimisations in this crate charge energy through this model, so
//! their *relative* results are insensitive to the absolute constants.

use crate::topology::{Mesh2d, TileId};

/// Per-bit energy parameters of routers and links.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BitEnergyModel {
    /// Energy for one bit to traverse one router, in picojoules.
    pub router_pj: f64,
    /// Energy for one bit to traverse one inter-tile link, in picojoules.
    pub link_pj: f64,
}

impl Default for BitEnergyModel {
    /// Defaults in the ballpark reported for 100 nm-class NoCs:
    /// 0.98 pJ/bit per router, 0.39 pJ/bit per link.
    fn default() -> Self {
        BitEnergyModel {
            router_pj: 0.98,
            link_pj: 0.39,
        }
    }
}

impl BitEnergyModel {
    /// Energy for one bit over an `hops`-hop route, in picojoules.
    #[must_use]
    pub fn bit_energy_pj(&self, hops: usize) -> f64 {
        (hops as f64 + 1.0) * self.router_pj + hops as f64 * self.link_pj
    }

    /// Energy to move `bytes` between two tiles of `mesh`, in picojoules.
    ///
    /// # Panics
    ///
    /// Panics if either tile is outside the mesh.
    #[must_use]
    pub fn transfer_energy_pj(&self, mesh: &Mesh2d, from: TileId, to: TileId, bytes: u64) -> f64 {
        let hops = mesh.hop_distance(from, to);
        bytes as f64 * 8.0 * self.bit_energy_pj(hops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_hops_costs_one_router() {
        let m = BitEnergyModel::default();
        assert!((m.bit_energy_pj(0) - m.router_pj).abs() < 1e-12);
    }

    #[test]
    fn energy_linear_in_hops() {
        let m = BitEnergyModel::default();
        let step = m.bit_energy_pj(3) - m.bit_energy_pj(2);
        assert!((step - (m.router_pj + m.link_pj)).abs() < 1e-12);
    }

    #[test]
    fn transfer_energy_scales_with_bytes_and_distance() {
        let mesh = Mesh2d::new(4, 4).expect("valid");
        let m = BitEnergyModel::default();
        let near = m.transfer_energy_pj(&mesh, TileId(0), TileId(1), 100);
        let far = m.transfer_energy_pj(&mesh, TileId(0), TileId(15), 100);
        let big = m.transfer_energy_pj(&mesh, TileId(0), TileId(1), 200);
        assert!(far > near);
        assert!((big / near - 2.0).abs() < 1e-12);
    }

    #[test]
    fn local_transfer_still_costs_router_energy() {
        let mesh = Mesh2d::new(2, 2).expect("valid");
        let m = BitEnergyModel::default();
        let local = m.transfer_energy_pj(&mesh, TileId(0), TileId(0), 1);
        assert!((local - 8.0 * m.router_pj).abs() < 1e-12);
    }
}
