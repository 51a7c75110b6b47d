#include "workload/kernels.hh"

#include "graph/builder.hh"
#include "support/logging.hh"

namespace cams
{

Dfg
kernelHydro()
{
    // x[k] = q + y[k] * (r*z[k+10] + t*z[k+11])
    DfgBuilder b("hydro");
    b.op("ld_y", Opcode::Load)
        .op("ld_z10", Opcode::Load)
        .op("ld_z11", Opcode::Load)
        .op("mul_r", Opcode::FpMult)
        .op("mul_t", Opcode::FpMult)
        .op("add_in", Opcode::FpAdd)
        .op("mul_y", Opcode::FpMult)
        .op("add_q", Opcode::FpAdd)
        .op("st_x", Opcode::Store)
        .op("cnt", Opcode::IntAlu)
        .op("br", Opcode::Branch);
    b.flow("ld_z10", "mul_r")
        .flow("ld_z11", "mul_t")
        .flow("mul_r", "add_in")
        .flow("mul_t", "add_in")
        .flow("ld_y", "mul_y")
        .flow("add_in", "mul_y")
        .flow("mul_y", "add_q")
        .flow("add_q", "st_x")
        .flow("cnt", "br");
    return b.build();
}

Dfg
kernelInnerProduct()
{
    // q += z[k] * x[k]
    DfgBuilder b("inner_product");
    b.op("ld_z", Opcode::Load)
        .op("ld_x", Opcode::Load)
        .op("mul", Opcode::FpMult)
        .op("acc", Opcode::FpAdd)
        .op("cnt", Opcode::IntAlu)
        .op("br", Opcode::Branch);
    b.flow("ld_z", "mul")
        .flow("ld_x", "mul")
        .flow("mul", "acc")
        .carried("acc", "acc", 1)
        .flow("cnt", "br");
    return b.build();
}

Dfg
kernelTridiag()
{
    // x[i] = z[i] * (y[i] - x[i-1]); the sub/mul pair is a distance-1
    // recurrence with RecMII = (1 + 3) / 1 = 4.
    DfgBuilder b("tridiag");
    b.op("ld_z", Opcode::Load)
        .op("ld_y", Opcode::Load)
        .op("sub", Opcode::FpAdd)
        .op("mul", Opcode::FpMult)
        .op("st_x", Opcode::Store)
        .op("cnt", Opcode::IntAlu)
        .op("br", Opcode::Branch);
    b.flow("ld_y", "sub")
        .flow("ld_z", "mul")
        .flow("sub", "mul")
        .carried("mul", "sub", 1)
        .flow("mul", "st_x")
        .flow("cnt", "br");
    return b.build();
}

Dfg
kernelFirstDiff()
{
    // x[k] = y[k+1] - y[k]
    DfgBuilder b("first_diff");
    b.op("ld_y1", Opcode::Load)
        .op("ld_y0", Opcode::Load)
        .op("sub", Opcode::FpAdd)
        .op("st_x", Opcode::Store)
        .op("cnt", Opcode::IntAlu)
        .op("br", Opcode::Branch);
    b.flow("ld_y1", "sub")
        .flow("ld_y0", "sub")
        .flow("sub", "st_x")
        .flow("cnt", "br");
    return b.build();
}

Dfg
kernelStateEquation()
{
    // LFK 7 flavor:
    // x[k] = u[k] + r*(z[k] + r*y[k])
    //      + t*(u[k+3] + r*(u[k+2] + r*u[k+1]))
    DfgBuilder b("state_equation");
    b.op("ld_u0", Opcode::Load)
        .op("ld_u1", Opcode::Load)
        .op("ld_u2", Opcode::Load)
        .op("ld_u3", Opcode::Load)
        .op("ld_z", Opcode::Load)
        .op("ld_y", Opcode::Load)
        .op("m_ry", Opcode::FpMult)
        .op("a_zy", Opcode::FpAdd)
        .op("m_r1", Opcode::FpMult)
        .op("a_u0", Opcode::FpAdd)
        .op("m_ru1", Opcode::FpMult)
        .op("a_u2", Opcode::FpAdd)
        .op("m_r2", Opcode::FpMult)
        .op("a_u3", Opcode::FpAdd)
        .op("m_t", Opcode::FpMult)
        .op("a_all", Opcode::FpAdd)
        .op("st_x", Opcode::Store)
        .op("cnt", Opcode::IntAlu)
        .op("br", Opcode::Branch);
    b.flow("ld_y", "m_ry")
        .flow("ld_z", "a_zy")
        .flow("m_ry", "a_zy")
        .flow("a_zy", "m_r1")
        .flow("ld_u0", "a_u0")
        .flow("m_r1", "a_u0")
        .flow("ld_u1", "m_ru1")
        .flow("ld_u2", "a_u2")
        .flow("m_ru1", "a_u2")
        .flow("a_u2", "m_r2")
        .flow("ld_u3", "a_u3")
        .flow("m_r2", "a_u3")
        .flow("a_u3", "m_t")
        .flow("a_u0", "a_all")
        .flow("m_t", "a_all")
        .flow("a_all", "st_x")
        .flow("cnt", "br");
    return b.build();
}

Dfg
kernelFir4()
{
    // y[n] = sum_{i<4} c[i] * x[n-i], accumulated serially.
    DfgBuilder b("fir4");
    b.op("ld_x0", Opcode::Load)
        .op("ld_x1", Opcode::Load)
        .op("ld_x2", Opcode::Load)
        .op("ld_x3", Opcode::Load)
        .op("m0", Opcode::FpMult)
        .op("m1", Opcode::FpMult)
        .op("m2", Opcode::FpMult)
        .op("m3", Opcode::FpMult)
        .op("a01", Opcode::FpAdd)
        .op("a23", Opcode::FpAdd)
        .op("sum", Opcode::FpAdd)
        .op("st_y", Opcode::Store)
        .op("cnt", Opcode::IntAlu)
        .op("br", Opcode::Branch);
    b.flow("ld_x0", "m0")
        .flow("ld_x1", "m1")
        .flow("ld_x2", "m2")
        .flow("ld_x3", "m3")
        .flow("m0", "a01")
        .flow("m1", "a01")
        .flow("m2", "a23")
        .flow("m3", "a23")
        .flow("a01", "sum")
        .flow("a23", "sum")
        .flow("sum", "st_y")
        .flow("cnt", "br");
    return b.build();
}

Dfg
kernelFirstOrderRecurrence()
{
    // x[k] = x[k-1] + y[k]
    DfgBuilder b("first_order_rec");
    b.op("ld_y", Opcode::Load)
        .op("acc", Opcode::FpAdd)
        .op("st_x", Opcode::Store)
        .op("cnt", Opcode::IntAlu)
        .op("br", Opcode::Branch);
    b.flow("ld_y", "acc")
        .carried("acc", "acc", 1)
        .flow("acc", "st_x")
        .flow("cnt", "br");
    return b.build();
}

Dfg
kernelAddressChase()
{
    // p = *(p + offset): a load inside the recurrence.
    DfgBuilder b("address_chase");
    b.op("addr", Opcode::IntAlu)
        .op("ld_p", Opcode::Load)
        .op("use", Opcode::IntAlu)
        .op("st", Opcode::Store)
        .op("br", Opcode::Branch);
    b.flow("addr", "ld_p")
        .carried("ld_p", "addr", 1)
        .flow("ld_p", "use")
        .flow("use", "st")
        .flow("use", "br");
    return b.build();
}

Dfg
kernelLinearRecurrence()
{
    // LFK 6 inner body: w += b[k][i] * w_prev (accumulation whose
    // carried input also feeds an address computation).
    DfgBuilder b("linear_rec");
    b.op("addr", Opcode::IntAlu)
        .op("ld_b", Opcode::Load)
        .op("mul", Opcode::FpMult)
        .op("acc", Opcode::FpAdd)
        .op("cnt", Opcode::IntAlu)
        .op("br", Opcode::Branch);
    b.flow("addr", "ld_b")
        .flow("ld_b", "mul")
        .carried("acc", "mul", 1)
        .flow("mul", "acc")
        .flow("cnt", "br");
    return b.build();
}

Dfg
kernelPredictor()
{
    // LFK 9 flavor: px[i] = dm28*px13 + dm27*px12 + ... + c0*px4,
    // a wide tree over shared coefficient constants.
    DfgBuilder b("predictor");
    for (int i = 0; i < 5; ++i)
        b.op(detail::concat("ld", i), Opcode::Load);
    for (int i = 0; i < 5; ++i) {
        b.op(detail::concat("m", i), Opcode::FpMult);
        b.flow(detail::concat("ld", i), detail::concat("m", i));
    }
    b.op("a0", Opcode::FpAdd)
        .op("a1", Opcode::FpAdd)
        .op("a2", Opcode::FpAdd)
        .op("a3", Opcode::FpAdd)
        .op("st", Opcode::Store)
        .op("cnt", Opcode::IntAlu)
        .op("br", Opcode::Branch);
    b.flow("m0", "a0")
        .flow("m1", "a0")
        .flow("m2", "a1")
        .flow("m3", "a1")
        .flow("a0", "a2")
        .flow("a1", "a2")
        .flow("m4", "a3")
        .flow("a2", "a3")
        .flow("a3", "st")
        .flow("cnt", "br");
    return b.build();
}

Dfg
kernelHydro2d()
{
    // LFK 18 flavor: one of the three update statements of 2-D
    // explicit hydrodynamics, with neighbor loads in two dimensions.
    DfgBuilder b("hydro2d");
    const char *loads[] = {"zp_jk",  "zq_jk",  "zr_jk",  "zm_jk",
                           "zr_j1k", "zm_jk1", "zz_jk",  "zu_jk"};
    for (const char *name : loads)
        b.op(name, Opcode::Load);
    b.op("t1", Opcode::FpAdd)
        .op("t2", Opcode::FpAdd)
        .op("m1", Opcode::FpMult)
        .op("m2", Opcode::FpMult)
        .op("d1", Opcode::FpAdd)
        .op("m3", Opcode::FpMult)
        .op("m4", Opcode::FpMult)
        .op("d2", Opcode::FpAdd)
        .op("s1", Opcode::FpMult)
        .op("sum", Opcode::FpAdd)
        .op("upd", Opcode::FpAdd)
        .op("st", Opcode::Store)
        .op("cnt", Opcode::IntAlu)
        .op("cmp", Opcode::IntAlu)
        .op("br", Opcode::Branch);
    b.flow("zp_jk", "t1")
        .flow("zq_jk", "t1")
        .flow("zr_jk", "t2")
        .flow("zm_jk", "t2")
        .flow("t1", "m1")
        .flow("zr_j1k", "m2")
        .flow("m1", "d1")
        .flow("m2", "d1")
        .flow("t2", "m3")
        .flow("zm_jk1", "m4")
        .flow("m3", "d2")
        .flow("m4", "d2")
        .flow("d1", "s1")
        .flow("d2", "sum")
        .flow("s1", "sum")
        .flow("zz_jk", "upd")
        .flow("sum", "upd")
        .flow("zu_jk", "upd")
        .flow("upd", "st")
        .flow("cnt", "cmp")
        .flow("cmp", "br");
    return b.build();
}

Dfg
kernelCrc()
{
    // crc = table[(crc ^ data) & mask] ^ (crc >> 8): the crc value is
    // a loop-carried recurrence through integer ops and a table load.
    DfgBuilder b("crc");
    b.op("ld_data", Opcode::Load)
        .op("xor_in", Opcode::IntAlu)
        .op("mask", Opcode::IntAlu)
        .op("ld_tab", Opcode::Load)
        .op("shift", Opcode::IntShift)
        .op("xor_out", Opcode::IntAlu)
        .op("cnt", Opcode::IntAlu)
        .op("br", Opcode::Branch);
    b.flow("ld_data", "xor_in")
        .carried("xor_out", "xor_in", 1)
        .flow("xor_in", "mask")
        .flow("mask", "ld_tab")
        .carried("xor_out", "shift", 1)
        .flow("ld_tab", "xor_out")
        .flow("shift", "xor_out")
        .flow("cnt", "br");
    return b.build();
}

std::vector<Dfg>
allKernels()
{
    std::vector<Dfg> kernels;
    kernels.push_back(kernelHydro());
    kernels.push_back(kernelInnerProduct());
    kernels.push_back(kernelTridiag());
    kernels.push_back(kernelFirstDiff());
    kernels.push_back(kernelStateEquation());
    kernels.push_back(kernelFir4());
    kernels.push_back(kernelFirstOrderRecurrence());
    kernels.push_back(kernelAddressChase());
    kernels.push_back(kernelLinearRecurrence());
    kernels.push_back(kernelPredictor());
    kernels.push_back(kernelHydro2d());
    kernels.push_back(kernelCrc());
    return kernels;
}

} // namespace cams
