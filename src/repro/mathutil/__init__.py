"""Number-theory and bit-manipulation utilities.

These back the prime-number indexing functions (largest prime below a
power of two, Mersenne primes), the hardware models (bit-field
extraction mirroring Figure 1 of the paper) and the set-index sorts.
"""

from repro.mathutil.bits import (
    bit_field,
    bit_length,
    circular_shift_left,
    is_power_of_two,
    log2_exact,
    ones_positions,
    split_address,
)
from repro.mathutil.primes import (
    LADDER_INPUT_BOUND,
    MILLER_RABIN_DETERMINISTIC_BOUND,
    is_mersenne_prime,
    is_prime,
    largest_prime_below,
    mersenne_primes_below,
    next_prime,
    prev_prime,
    primes_below,
)
from repro.mathutil.sorting import radix_argsort

__all__ = [
    "LADDER_INPUT_BOUND",
    "MILLER_RABIN_DETERMINISTIC_BOUND",
    "bit_field",
    "bit_length",
    "circular_shift_left",
    "is_mersenne_prime",
    "is_power_of_two",
    "is_prime",
    "largest_prime_below",
    "log2_exact",
    "mersenne_primes_below",
    "next_prime",
    "ones_positions",
    "prev_prime",
    "primes_below",
    "radix_argsort",
    "split_address",
]
