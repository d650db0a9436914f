"""Random projections onto latent feature spaces.

Three projection models are supported.  Random indexing assigns each feature
a sparse ternary index vector with a fixed number of nonzero entries, half
positive and half negative, at seeded random positions.  The lightweight
variant allocates nonzero positions round-robin over the dimensions so every
dimension is reused equally often (minimizing overlap between index
vectors); only the sign assignment stays random.  The Achlioptas mapping
draws every entry independently from {+sqrt(3), 0, -sqrt(3)} with
probabilities {1/6, 2/3, 1/6}.

Document latent vectors are weighted sums of index vectors, so the
projection is linear and approximately preserves dot products.  All
randomness comes from the deterministic generator in :mod:`jatecs.rng`,
split per feature id, which makes models byte-reproducible given a seed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .index import Index
from .rng import SplitMix64

RANDOM_INDEXING = "RandomIndexing"
LIGHTWEIGHT_RI = "LightweightRI"
ACHLIOPTAS = "Achlioptas"

KINDS = (RANDOM_INDEXING, LIGHTWEIGHT_RI, ACHLIOPTAS)


@dataclass(frozen=True)
class ProjectionModel:
    kind: str
    dim: int
    nonzeros: int
    seed: int
    index_vectors: tuple  # fID -> tuple of (position, value), ascending position


def _signed_values(nonzeros: int, rng: SplitMix64) -> list:
    """Half +1/sqrt(nz), half -1/sqrt(nz) (odd count: one extra +), shuffled."""
    magnitude = 1.0 / math.sqrt(nonzeros)
    values = [magnitude] * ((nonzeros + 1) // 2) + [-magnitude] * (nonzeros // 2)
    rng.shuffle(values)
    return values


def build_projection(index: Index, kind: str, dim: int, nonzeros: int = 0,
                     seed: int = 0) -> ProjectionModel:
    """One index vector per feature of `index`, deterministic given seed.

    `nonzeros` is the count of nonzero entries per vector of the random
    indexing kinds; an Achlioptas model has none fixed and records 0.
    """
    if dim < 1:
        raise ValidationError("projection dim must be >= 1")
    if kind not in KINDS:
        raise ValidationError(f"unknown projection kind {kind!r}")
    if nonzeros < 0:
        raise ValidationError("nonzeros must be >= 0")
    if kind in (RANDOM_INDEXING, LIGHTWEIGHT_RI):
        if nonzeros < 1:
            raise ValidationError("nonzeros must be >= 1")
        if nonzeros > dim:
            raise ValidationError("nonzeros cannot exceed dim")
    else:
        nonzeros = 0  # an Achlioptas vector has no fixed count of nonzeros
    num_features = index.num_features
    vectors = []
    next_slot = 0  # lightweight variant: rotating dimension cursor
    for f in range(num_features):
        rng = SplitMix64.for_stream(seed, f)
        if kind == RANDOM_INDEXING:
            positions = rng.sample(dim, nonzeros)
            values = _signed_values(nonzeros, rng)
            entries = sorted(zip(positions, values))
        elif kind == LIGHTWEIGHT_RI:
            positions = [(next_slot + j) % dim for j in range(nonzeros)]
            next_slot = (next_slot + nonzeros) % dim
            values = _signed_values(nonzeros, rng)
            entries = sorted(zip(positions, values))
        else:
            root3 = math.sqrt(3.0)
            entries = []
            for pos in range(dim):
                draw = rng.next_below(6)
                if draw == 0:
                    entries.append((pos, root3))
                elif draw == 1:
                    entries.append((pos, -root3))
        vectors.append(tuple(entries))
    return ProjectionModel(kind=kind, dim=dim, nonzeros=nonzeros, seed=seed,
                           index_vectors=tuple(vectors))


def project(model: ProjectionModel, index: Index) -> np.ndarray:
    """Dense D x dim latent matrix: row(d) = sum_f weight(d, f) * vector(f)."""
    if index.num_features > len(model.index_vectors):
        raise ValidationError(
            f"index has {index.num_features} features but the model only "
            f"covers {len(model.index_vectors)}")
    out = np.zeros((index.num_documents, model.dim), dtype=np.float64)
    for d in range(index.num_documents):
        row = out[d]
        for f, w in index.document_weights(d).items():
            for pos, val in model.index_vectors[f]:
                row[pos] += w * val
    return out


def model_file_bytes(model: ProjectionModel) -> bytes:
    """Stable TSV serialization (used for reproducibility checks too)."""
    lines = [f"kind\t{model.kind}\n", f"dim\t{model.dim}\n",
             f"nonzeros\t{model.nonzeros}\n", f"seed\t{model.seed}\n",
             f"features\t{len(model.index_vectors)}\n"]
    for f, entries in enumerate(model.index_vectors):
        for pos, val in entries:
            lines.append(f"{f}\t{pos}\t{val!r}\n")
    return "".join(lines).encode("utf-8")


def save_model(model: ProjectionModel, path) -> None:
    with open(path, "wb") as fh:
        fh.write(model_file_bytes(model))


def save_matrix(matrix: np.ndarray, path) -> None:
    """Latent matrix as TSV: one row per document."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in matrix:
            fh.write("\t".join(repr(float(x)) for x in row) + "\n")


def save_projection(model: ProjectionModel, matrix: np.ndarray, directory) -> None:
    os.makedirs(directory, exist_ok=True)
    save_model(model, os.path.join(directory, "model.tsv"))
    save_matrix(matrix, os.path.join(directory, "latent.tsv"))
