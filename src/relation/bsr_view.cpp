#include "relation/bsr_view.hpp"

#include <string>

namespace bernoulli::relation {

namespace {

std::string bsr_spec(const std::string& name, const formats::Bsr& m) {
  const std::string b = std::to_string(m.block());
  return "format " + name + " {\n"
         "  level i: dense(" + std::to_string(m.rows()) + ");\n"
         "  level j: blocked(r=" + b + ", c=" + b + ", ptr=" + name +
         "_BROWPTR, ind=" + name + "_BCOLIND) sorted;\n"
         "  value " + name + "_VALS;\n"
         "}\n";
}

FormatArrays bsr_arrays(const std::string& name, const formats::Bsr& m) {
  FormatArrays arrays;
  arrays.index_arrays[name + "_BROWPTR"] = m.browptr();
  arrays.index_arrays[name + "_BCOLIND"] = m.bcolind();
  arrays.value_arrays[name + "_VALS"] = m.vals();
  return arrays;
}

}  // namespace

BsrView::BsrView(const std::string& name, const formats::Bsr& m)
    : GenericFormatView(bsr_spec(name, m), bsr_arrays(name, m)) {}

}  // namespace bernoulli::relation
