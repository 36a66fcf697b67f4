/**
 * @file
 * Experiments E6/E7 (Table III, Fig 10): the outer-product
 * computation performed by each threadgroup in every set and step of
 * a Volta wmma.mma, printed in the paper's a..h / A..H subtile
 * notation.
 */

#include <cstdio>

#include "bench_util.h"
#include "sass/hmma_decomposer.h"

using namespace tcsim;

namespace {

/** Paper notation: A-subtiles a..d belong to the octet's lower
 *  threadgroup rows, e..h to the upper; B-subtiles A..D to the lower
 *  stripe, E..H to the upper (Fig 12b). */
char
a_subtile_letter(int tg, int set)
{
    bool upper = tg >= 4;
    return static_cast<char>((upper ? 'e' : 'a') + set);
}

char
b_subtile_letter(int set, int step, TcMode mode)
{
    bool own = mode == TcMode::kMixed ? step < 2 : step < 1;
    // Steps 0-1 use the lower threadgroup's stripe (A..D), steps 2-3
    // the partner's (E..H).
    return static_cast<char>((own ? 'A' : 'E') + set);
}

}  // namespace

int
main()
{
    std::printf("Table III: octet computation details (mixed precision)\n");
    std::printf("rows shown for octet 0 (threadgroups 0 and 4); all octets "
                "are isomorphic\n\n");
    TextTable tbl;
    tbl.set_header({"set", "step", "tg0 computes", "tg4 computes",
                    "tg0 D rows", "B cols"});
    for (int set = 0; set < 4; ++set) {
        for (int step = 0; step < 4; ++step) {
            auto sc0 = volta_step_compute(TcMode::kMixed, 0, set, step);
            char c0[32], c4[32], drows[16], bcols[16];
            int rowpair = (step % 2) ? 1 : 0;
            std::snprintf(c0, sizeof(c0), "%c[%d:%d] x %c",
                          a_subtile_letter(0, set), 2 * rowpair,
                          2 * rowpair + 1,
                          b_subtile_letter(set, step, TcMode::kMixed));
            std::snprintf(c4, sizeof(c4), "%c[%d:%d] x %c",
                          a_subtile_letter(4, set), 2 * rowpair,
                          2 * rowpair + 1,
                          b_subtile_letter(set, step, TcMode::kMixed));
            std::snprintf(drows, sizeof(drows), "[%d:%d]", sc0.cd.row0,
                          sc0.cd.row1);
            std::snprintf(bcols, sizeof(bcols), "[%d:%d]", sc0.b.col0,
                          sc0.b.col1);
            tbl.add_row({std::to_string(set + 1), std::to_string(step), c0,
                         c4, drows, bcols});
        }
    }
    bench::print_table(tbl);

    bench::section("Fig 10b: subtile geometry per step (threadgroup 0)");
    for (int set = 0; set < 4; ++set) {
        for (int step = 0; step < 4; ++step) {
            auto sc = volta_step_compute(TcMode::kMixed, 0, set, step);
            std::printf("set %d step %d: A[%2d:%2d,%2d:%2d] x "
                        "B[%2d:%2d,%2d:%2d] -> D[%2d:%2d,%2d:%2d]  (%dx%d)\n",
                        set + 1, step, sc.a.row0, sc.a.row1, sc.a.col0,
                        sc.a.col1, sc.b.row0, sc.b.row1, sc.b.col0, sc.b.col1,
                        sc.cd.row0, sc.cd.row1, sc.cd.col0, sc.cd.col1,
                        sc.cd.rows(), sc.cd.cols());
        }
    }

    bench::section("Fig 10c: FP16 mode steps (threadgroup 0, set 1)");
    for (int step = 0; step < 2; ++step) {
        auto sc = volta_step_compute(TcMode::kFp16, 0, 0, step);
        std::printf("step %d: A[%d:%d,%d:%d] x B[%d:%d,%d:%d] -> "
                    "D[%d:%d,%d:%d]  (%dx%d, full 4x4 per step)\n",
                    step, sc.a.row0, sc.a.row1, sc.a.col0, sc.a.col1,
                    sc.b.row0, sc.b.row1, sc.b.col0, sc.b.col1, sc.cd.row0,
                    sc.cd.row1, sc.cd.col0, sc.cd.col1, sc.cd.rows(),
                    sc.cd.cols());
    }
    return 0;
}
