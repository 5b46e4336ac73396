#include <ostream>

#include "io/io.hpp"

namespace mighty::io {

namespace {

std::string signal_expr(const mig::Mig& mig, mig::Signal s) {
  if (mig.is_constant(s.index())) {
    return s.is_complemented() ? "1'b1" : "1'b0";
  }
  // Appended front to back: prepending "~" to a built name is a string
  // insert that GCC 12 misreads as an overlapping copy (-Wrestrict).
  std::string expr = s.is_complemented() ? "~" : "";
  if (mig.is_pi(s.index())) {
    expr += 'x';
    expr += std::to_string(mig.pi_index(s.index()));
  } else {
    expr += 'n';
    expr += std::to_string(s.index());
  }
  return expr;
}

}  // namespace

void write_verilog(std::ostream& os, const mig::Mig& mig, const std::string& module_name) {
  os << "module " << module_name << "(";
  for (uint32_t i = 0; i < mig.num_pis(); ++i) os << "x" << i << ", ";
  for (uint32_t o = 0; o < mig.num_pos(); ++o) {
    os << "y" << o << (o + 1 < mig.num_pos() ? ", " : "");
  }
  os << ");\n";
  for (uint32_t i = 0; i < mig.num_pis(); ++i) os << "  input x" << i << ";\n";
  for (uint32_t o = 0; o < mig.num_pos(); ++o) os << "  output y" << o << ";\n";

  const auto live = mig.live_mask();
  for (uint32_t n = 0; n < mig.num_nodes(); ++n) {
    if (!live[n] || !mig.is_gate(n)) continue;
    os << "  wire n" << n << ";\n";
  }
  for (uint32_t n = 0; n < mig.num_nodes(); ++n) {
    if (!live[n] || !mig.is_gate(n)) continue;
    const auto& f = mig.fanins(n);
    const std::string a = signal_expr(mig, f[0]);
    const std::string b = signal_expr(mig, f[1]);
    const std::string c = signal_expr(mig, f[2]);
    os << "  assign n" << n << " = (" << a << " & " << b << ") | (" << a << " & " << c
       << ") | (" << b << " & " << c << ");\n";
  }
  for (uint32_t o = 0; o < mig.num_pos(); ++o) {
    os << "  assign y" << o << " = " << signal_expr(mig, mig.output(o)) << ";\n";
  }
  os << "endmodule\n";
}

}  // namespace mighty::io
