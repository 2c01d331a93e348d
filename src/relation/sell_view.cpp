#include "relation/sell_view.hpp"

#include <string>

namespace bernoulli::relation {

namespace {

std::string sell_spec(const std::string& name, const formats::Sell& m) {
  return "format " + name + " {\n"
         "  level i: dense(" + std::to_string(m.rows()) + ");\n"
         "  level j: sliced(chunk=" + std::to_string(m.chunk()) +
         ", sigma=" + std::to_string(m.sigma()) + ", base=" + name +
         "_ROWBASE, len=" + name + "_ROWLEN, ind=" + name +
         "_COLIND) sorted;\n"
         "  value " + name + "_VALS;\n"
         "}\n";
}

FormatArrays sell_arrays(const std::string& name, const formats::Sell& m) {
  FormatArrays arrays;
  arrays.index_arrays[name + "_ROWBASE"] = m.rowbase();
  arrays.index_arrays[name + "_ROWLEN"] = m.rowlen();
  arrays.index_arrays[name + "_COLIND"] = m.colind();
  arrays.value_arrays[name + "_VALS"] = m.vals();
  return arrays;
}

}  // namespace

SellView::SellView(const std::string& name, const formats::Sell& m)
    : GenericFormatView(sell_spec(name, m), sell_arrays(name, m)) {}

}  // namespace bernoulli::relation
