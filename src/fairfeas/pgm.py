"""Binary PGM (P5, 8-bit) export for count grids and boolean masks."""

from __future__ import annotations

import numpy as np


def write_pgm(values: np.ndarray, path) -> None:
    """Write a 2-D array as a P5 PGM image.

    Boolean masks map to {0, 255}. Non-negative count grids are
    max-normalized after log1p, so sparse large counts do not crush the
    rest of the dynamic range.
    """
    a = np.asarray(values)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {a.shape}")
    if a.dtype == bool:
        pixels = np.where(a, 255, 0).astype(np.uint8)
    else:
        if (a < 0).any():
            raise ValueError("pixel source values must be non-negative")
        scaled = np.log1p(a.astype(np.float64))
        peak = scaled.max()
        pixels = (
            np.zeros(a.shape, dtype=np.uint8)
            if peak == 0.0
            else np.round(255.0 * scaled / peak).astype(np.uint8)
        )
    with open(path, "wb") as fh:
        fh.write(f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
