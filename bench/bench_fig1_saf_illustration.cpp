// Fig. 1 — conceptual illustration of SAFs in crossbars storing the weight
// and adjacency matrices, regenerated from the actual simulator.
//
// (a) a 16-bit fixed-point weight sliced into 8 cells: a SA1 near the MSB
//     explodes the read-out value (shift-and-add of the stuck slices);
// (b) a binary adjacency block: SA0 under a stored "1" deletes an edge,
//     SA1 under a stored "0" inserts one.
#include <iostream>

#include "common/table.hpp"
#include "fare/row_matcher.hpp"
#include "oracle/corruption_reference.hpp"
#include "oracle/fixed_matrix.hpp"

int main() {
    using namespace fare;
    std::cout << "=== Fig. 1(a): SA1 near the MSB of a fixed-point weight ===\n\n";

    const float weight = 0.75f;
    const std::int16_t q = float_to_fixed(weight);
    const CellSlices clean = slice_fixed(q);

    Table t({"Slice (MSB->LSB)", "0", "1", "2", "3", "4", "5", "6", "7",
             "Read-out value"});
    auto slices_row = [](const char* label, const CellSlices& s, float value) {
        std::vector<std::string> row{label};
        for (auto cell : s) row.push_back(std::to_string(static_cast<int>(cell)));
        row.push_back(fmt(value, 4));
        return row;
    };
    t.add_row(slices_row("stored (0.75)", clean, fixed_to_float(unslice_fixed(clean))));
    for (int faulty_slice : {0, 3, 7}) {
        CellSlices s = clean;
        s[static_cast<std::size_t>(faulty_slice)] = 0x3;  // SA1: full conductance
        const float v = fixed_to_float(unslice_fixed(s));
        const std::string label = "SA1 @ slice " + std::to_string(faulty_slice);
        t.add_row(slices_row(label.c_str(), s, v));
    }
    std::cout << t.to_ascii()
              << "\nSA1 at the MSB slice turns 0.75 into a huge value (weight\n"
                 "explosion); the same fault at the LSB slice is negligible.\n\n";

    std::cout << "=== Fig. 1(b): SAFs in a binary adjacency block ===\n\n";
    BinaryBlock block;
    block.size = 4;
    block.bits = {1, 0, 0, 0,
                  0, 1, 1, 0,
                  1, 0, 0, 1,
                  0, 0, 0, 0};
    FaultMap map(4, 4);
    map.add(0, 3, FaultType::kSA1);  // inserts an edge
    map.add(2, 0, FaultType::kSA0);  // deletes an edge
    map.add(2, 1, FaultType::kSA1);  // inserts another
    const BinaryBlock eff = corrupt_adjacency_block(block, map, identity_perm(4));

    auto print_block = [](const char* title, const BinaryBlock& b) {
        std::cout << title << '\n';
        for (std::uint16_t r = 0; r < b.size; ++r) {
            std::cout << "  ";
            for (std::uint16_t c = 0; c < b.size; ++c)
                std::cout << static_cast<int>(b.at(r, c)) << ' ';
            std::cout << '\n';
        }
    };
    print_block("ideal block:", block);
    print_block("faulty block (SA1@(0,3) SA0@(2,0) SA1@(2,1)):", eff);
    std::cout << "\nmapping cost of this example (unweighted mismatches): "
              << mapping_cost(block, map, identity_perm(4), {1.0, 1.0})
              << "  (the paper's Fig. 1(b) example counts 3)\n";
    return 0;
}
