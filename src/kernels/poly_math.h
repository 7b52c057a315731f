/**
 * @file
 * Polynomial exp, sigmoid and tanh for the LSTM elementwise tail
 * (kernels-internal: included only by kernel translation units).
 *
 * Every function is straight-line IEEE add/mul/div code plus integer
 * bit operations — clamps and branch selects are ternaries the
 * compiler if-converts — so a loop over them auto-vectorizes.  The
 * kernel library is compiled with -ffp-contract=off, so the scalar
 * reference TU, the vectorized TU and every target ISA round each
 * operation identically and produce the same bits.  Accuracy against
 * std:: (tests/kernels/test_lstm_tail.cc): a few ulp over the LSTM's
 * working range.
 */

#ifndef REUSE_DNN_KERNELS_POLY_MATH_H
#define REUSE_DNN_KERNELS_POLY_MATH_H

#include <bit>
#include <cstdint>

namespace reuse {
namespace kernels {
namespace poly {

/**
 * e^x: x = n·ln2 + r with n = round(x·log2 e) and |r| <= ln2/2, a
 * degree-7 polynomial for e^r (the Cephes expf coefficients), and
 * 2^n built in the exponent bits.  x is clamped to [-87, 88] so 2^n
 * stays a normal float.
 */
inline float
exp(float x)
{
    x = x < -87.0f ? -87.0f : x;
    x = x > 88.0f ? 88.0f : x;
    // Adding 1.5·2^23 rounds x·log2 e to the nearest integer n and
    // leaves n in the low mantissa bits of the sum.
    constexpr float kShifter = 12582912.0f;
    const float t = x * 1.44269504088896341f + kShifter;
    const float n = t - kShifter;
    const uint32_t n_bits =
        std::bit_cast<uint32_t>(t) - std::bit_cast<uint32_t>(kShifter);
    // r = x - n·ln2 with ln2 split in two (Cody-Waite): n·C1 is exact.
    float r = x - n * 0.693359375f;
    r = r - n * -2.12194440e-4f;
    float p = 1.9875691500e-4f;
    p = p * r + 1.3981999507e-3f;
    p = p * r + 8.3334519073e-3f;
    p = p * r + 4.1665795894e-2f;
    p = p * r + 1.6666665459e-1f;
    p = p * r + 5.0000001201e-1f;
    p = p * (r * r) + r + 1.0f;
    return p * std::bit_cast<float>((n_bits + 127u) << 23);
}

/** Logistic sigmoid 1 / (1 + e^-x). */
inline float
sigmoid(float x)
{
    return 1.0f / (1.0f + exp(-x));
}

/**
 * tanh: an odd polynomial below |x| = 0.625 (Cephes tanhf), where
 * 1 - 2/(e^2|x| + 1) would lose the result to cancellation, and that
 * form with the sign restored above.
 */
inline float
tanh(float x)
{
    const float a = x < 0.0f ? -x : x;
    const float z = x * x;
    float p = -5.70498872745e-3f;
    p = p * z + 2.06390887954e-2f;
    p = p * z - 5.37397155531e-2f;
    p = p * z + 1.33314422036e-1f;
    p = p * z - 3.33332819422e-1f;
    const float small = p * z * x + x;
    const float big = 1.0f - 2.0f / (exp(a + a) + 1.0f);
    const float large = x < 0.0f ? -big : big;
    return a < 0.625f ? small : large;
}

} // namespace poly
} // namespace kernels
} // namespace reuse

#endif // REUSE_DNN_KERNELS_POLY_MATH_H
