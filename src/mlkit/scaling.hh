#ifndef FITS_MLKIT_SCALING_HH_
#define FITS_MLKIT_SCALING_HH_

#include "mlkit/vector.hh"

namespace fits::ml {

/**
 * Feature-scaling transforms. These implement the preprocessing
 * alternatives the paper compares the clustering stage against in
 * §4.5 (standardization, min-max normalization, PCA). Eq. (1)'s
 * per-column max normalization lives in core/infer.cc, on
 * columnAbsMax.
 */

/** Z-score standardization per column (zero-stddev columns become 0). */
Matrix standardize(const Matrix &m);

/** Min-max normalization per column into [0, 1]. */
Matrix minMaxScale(const Matrix &m);

} // namespace fits::ml

#endif // FITS_MLKIT_SCALING_HH_
