// Text serialization of chiplet systems and floorplans.
//
// A minimal line-oriented format so problem instances and results can move
// between tools (and so the CLI example can consume user systems):
//
//   # comment
//   system <name>
//   interposer <width_mm> <height_mm>
//   chiplet <name> <width_mm> <height_mm> <power_w>
//   net <chiplet_name> <chiplet_name> <wires>
//
// Floorplan files reference chiplets of an existing system by name:
//
//   floorplan <system_name>
//   place <chiplet_name> <x_mm> <y_mm> [rotated]
#pragma once

#include <iosfwd>
#include <string>

#include "core/chiplet.h"
#include "core/floorplan.h"

namespace rlplan::systems {

/// Parses a system description. Throws std::runtime_error with a
/// line-numbered message on malformed input; the returned system is
/// validate()d.
ChipletSystem read_system(std::istream& is);
ChipletSystem read_system_file(const std::string& path);

void write_system(const ChipletSystem& system, std::ostream& os);

/// Parses a floorplan for `system` (chiplets referenced by name; all
/// placements optional — absent chiplets stay unplaced).
Floorplan read_floorplan(std::istream& is, const ChipletSystem& system);

void write_floorplan(const Floorplan& floorplan, std::ostream& os);
void write_floorplan_file(const Floorplan& floorplan,
                          const std::string& path);

}  // namespace rlplan::systems
