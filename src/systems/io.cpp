#include "systems/io.h"

#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace rlplan::systems {

namespace {

[[noreturn]] void fail(int line, const std::string& message) {
  throw std::runtime_error("line " + std::to_string(line) + ": " + message);
}

/// Splits a line into whitespace-delimited tokens, dropping '#' comments.
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) {
    if (tok[0] == '#') break;
    tokens.push_back(tok);
  }
  return tokens;
}

double parse_double(const std::string& tok, int line, const char* what) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(tok, &pos);
    if (pos != tok.size()) throw std::invalid_argument(tok);
    return v;
  } catch (const std::exception&) {
    fail(line, std::string("expected a number for ") + what + ", got '" +
                   tok + "'");
  }
}

}  // namespace

ChipletSystem read_system(std::istream& is) {
  std::string name;
  double iw = 0.0, ih = 0.0;
  std::vector<Chiplet> chiplets;
  std::map<std::string, std::size_t> index_of;
  std::vector<InterChipletNet> nets;

  std::string line;
  int line_no = 0;
  bool saw_system = false;
  while (std::getline(is, line)) {
    ++line_no;
    const auto tokens = tokenize(line);
    if (tokens.empty()) continue;
    const std::string& kw = tokens[0];
    if (kw == "system") {
      if (tokens.size() != 2) fail(line_no, "usage: system <name>");
      name = tokens[1];
      saw_system = true;
    } else if (kw == "interposer") {
      if (tokens.size() != 3) {
        fail(line_no, "usage: interposer <width_mm> <height_mm>");
      }
      iw = parse_double(tokens[1], line_no, "interposer width");
      ih = parse_double(tokens[2], line_no, "interposer height");
    } else if (kw == "chiplet") {
      if (tokens.size() != 5) {
        fail(line_no, "usage: chiplet <name> <w_mm> <h_mm> <power_w>");
      }
      if (index_of.count(tokens[1]) != 0) {
        fail(line_no, "duplicate chiplet '" + tokens[1] + "'");
      }
      index_of[tokens[1]] = chiplets.size();
      chiplets.push_back({tokens[1],
                          parse_double(tokens[2], line_no, "chiplet width"),
                          parse_double(tokens[3], line_no, "chiplet height"),
                          parse_double(tokens[4], line_no, "chiplet power")});
    } else if (kw == "net") {
      if (tokens.size() != 4) {
        fail(line_no, "usage: net <chiplet> <chiplet> <wires>");
      }
      const auto a = index_of.find(tokens[1]);
      const auto b = index_of.find(tokens[2]);
      if (a == index_of.end()) {
        fail(line_no, "unknown chiplet '" + tokens[1] + "'");
      }
      if (b == index_of.end()) {
        fail(line_no, "unknown chiplet '" + tokens[2] + "'");
      }
      const double wires = parse_double(tokens[3], line_no, "wire count");
      nets.push_back({a->second, b->second, static_cast<int>(wires)});
    } else {
      fail(line_no, "unknown keyword '" + kw + "'");
    }
  }
  if (!saw_system) {
    throw std::runtime_error("system file: missing 'system <name>' line");
  }
  ChipletSystem system(name, iw, ih, std::move(chiplets), std::move(nets));
  system.validate();
  return system;
}

ChipletSystem read_system_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open system file: " + path);
  try {
    return read_system(is);
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

void write_system(const ChipletSystem& system, std::ostream& os) {
  os << "system " << system.name() << "\n";
  os << "interposer " << system.interposer_width() << ' '
     << system.interposer_height() << "\n";
  for (const auto& c : system.chiplets()) {
    os << "chiplet " << c.name << ' ' << c.width << ' ' << c.height << ' '
       << c.power << "\n";
  }
  for (const auto& net : system.nets()) {
    os << "net " << system.chiplet(net.a).name << ' '
       << system.chiplet(net.b).name << ' ' << net.wires << "\n";
  }
}

Floorplan read_floorplan(std::istream& is, const ChipletSystem& system) {
  std::map<std::string, std::size_t> index_of;
  for (std::size_t i = 0; i < system.num_chiplets(); ++i) {
    index_of[system.chiplet(i).name] = i;
  }

  Floorplan fp(system);
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto tokens = tokenize(line);
    if (tokens.empty()) continue;
    const std::string& kw = tokens[0];
    if (kw == "floorplan") {
      if (tokens.size() != 2) fail(line_no, "usage: floorplan <system>");
      if (tokens[1] != system.name()) {
        fail(line_no, "floorplan is for system '" + tokens[1] +
                          "', expected '" + system.name() + "'");
      }
    } else if (kw == "place") {
      if (tokens.size() != 4 && tokens.size() != 5) {
        fail(line_no, "usage: place <chiplet> <x_mm> <y_mm> [rotated]");
      }
      const auto it = index_of.find(tokens[1]);
      if (it == index_of.end()) {
        fail(line_no, "unknown chiplet '" + tokens[1] + "'");
      }
      bool rotated = false;
      if (tokens.size() == 5) {
        if (tokens[4] != "rotated") {
          fail(line_no, "trailing token must be 'rotated'");
        }
        rotated = true;
      }
      fp.place(it->second,
               {parse_double(tokens[2], line_no, "x"),
                parse_double(tokens[3], line_no, "y")},
               rotated);
    } else {
      fail(line_no, "unknown keyword '" + kw + "'");
    }
  }
  return fp;
}

void write_floorplan(const Floorplan& floorplan, std::ostream& os) {
  const ChipletSystem& system = floorplan.system();
  os << "floorplan " << system.name() << "\n";
  for (std::size_t i = 0; i < system.num_chiplets(); ++i) {
    if (!floorplan.is_placed(i)) continue;
    const auto& p = *floorplan.placement(i);
    os << "place " << system.chiplet(i).name << ' ' << p.position.x << ' '
       << p.position.y;
    if (p.rotated) os << " rotated";
    os << "\n";
  }
}

void write_floorplan_file(const Floorplan& floorplan,
                          const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open for write: " + path);
  write_floorplan(floorplan, os);
}

}  // namespace rlplan::systems
