// Subcircuit "expansion bomb" netlists shared by the parser and daemon
// tests.
#pragma once

#include <string>

namespace sympvl {

/// `levels` subcircuits, each instancing the one below ten times, over a
/// one-resistor leaf: 10^levels resistors once flattened. `top` names the
/// top-level instance (six levels with the default name is a 789-byte
/// text).
inline std::string expansion_bomb(int levels, const std::string& top = "X1") {
  std::string text = ".subckt s0 a b\nR1 a b 1\n.ends\n";
  for (int k = 1; k <= levels; ++k) {
    text += ".subckt s" + std::to_string(k) + " a b\n";
    for (int i = 1; i <= 10; ++i)
      text += "X" + std::to_string(i) + " a b s" + std::to_string(k - 1) + "\n";
    text += ".ends\n";
  }
  return text + top + " in 0 s" + std::to_string(levels) + "\n.port p in\n.end\n";
}

}  // namespace sympvl
