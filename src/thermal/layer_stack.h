// Vertical layer stack of a 2.5D package.
//
// Layers are ordered bottom (interposer, index 0) to top (heat sink). Exactly
// one layer is the *chiplet layer*: laterally heterogeneous — silicon over
// die footprints, underfill elsewhere — and the layer where power enters.
// The top layer convects to ambient through an effective heat-transfer
// coefficient (lumping sink fins + airflow, as HotSpot's r_convec does).
//
// Heat also leaves weakly through the bottom (interposer -> package
// substrate -> board), modelled by a secondary coefficient.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "thermal/material.h"

namespace rlplan::thermal {

struct Layer {
  std::string name;
  double thickness = 0.0;  ///< m
  Material material;       ///< bulk material (chiplet layer: die material)
  bool is_chiplet_layer = false;
};

class LayerStack {
 public:
  LayerStack() = default;
  LayerStack(std::vector<Layer> layers, Material fill, double h_top,
             double h_bottom, double ambient_c);

  /// Default 2.5D flip-chip stack (bottom to top):
  ///   interposer Si 100um | chiplet layer Si/underfill 150um |
  ///   TIM 50um | Cu spreader 1mm | Al sink base 5mm, convective top.
  /// h_top is tuned so bundled benchmarks land in the paper's 75-95 degC
  /// operating window at realistic powers.
  static LayerStack default_2p5d();

  std::size_t num_layers() const { return layers_.size(); }
  const Layer& layer(std::size_t i) const { return layers_.at(i); }
  const std::vector<Layer>& layers() const { return layers_; }

  /// Index of the unique chiplet layer.
  std::size_t chiplet_layer_index() const;

  /// Fill material between dies on the chiplet layer.
  const Material& fill_material() const { return fill_; }

  /// Effective convection coefficient at the stack top, W / (m^2 K).
  double h_top() const { return h_top_; }
  /// Secondary heat path through the package bottom, W / (m^2 K).
  double h_bottom() const { return h_bottom_; }
  /// Ambient temperature, degrees Celsius.
  double ambient_c() const { return ambient_c_; }

  void set_h_top(double h) { h_top_ = h; }
  void set_h_bottom(double h) { h_bottom_ = h; }

  /// Throws std::invalid_argument on malformed stacks (no layers, no or
  /// multiple chiplet layers, non-positive thickness/conductivity).
  void validate() const;

 private:
  std::vector<Layer> layers_;
  Material fill_ = underfill();
  double h_top_ = 0.0;
  double h_bottom_ = 0.0;
  double ambient_c_ = 45.0;
};

}  // namespace rlplan::thermal
