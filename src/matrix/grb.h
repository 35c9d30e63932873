#pragma once

/**
 * @file
 * Umbrella header for the GraphBLAS-style matrix API (gas::grb).
 */

#include "matrix/formats.h"      // IWYU pragma: export
#include "matrix/lazy.h"         // IWYU pragma: export
#include "matrix/matrix.h"       // IWYU pragma: export
#include "matrix/simd_spmv.h"    // IWYU pragma: export
#include "matrix/ops_dispatch.h" // IWYU pragma: export
#include "matrix/ops_spgemm.h"   // IWYU pragma: export
#include "matrix/ops_spmv.h"     // IWYU pragma: export
#include "matrix/ops_vector.h"   // IWYU pragma: export
#include "matrix/semiring.h"     // IWYU pragma: export
#include "matrix/types.h"        // IWYU pragma: export
#include "matrix/vector.h"       // IWYU pragma: export
