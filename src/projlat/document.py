"""JSON operator-set documents: ingestion and serialization.

A document is a UTF-8 JSON object with an integer ``dim``, optional
tolerance overrides ``eps_rank`` / ``eps_entry`` / ``eps_subspace``, and
exactly one of two payloads:

* ``"contexts"``: object mapping a context name to an array of dim x dim
  matrices, each matrix an array of rows, each entry a two-element
  ``[re, im]`` array. Matrices are taken literally, never modified.
* ``"rays"`` plus ``"groups"``: ``rays`` maps a ray name to a dim-entry
  vector (same ``[re, im]`` encoding); ``groups`` maps a context name to an
  array of ray names. Rays are directions: they are normalized and turned
  into rank-1 projectors, one per ray, which every group that names the ray
  shares; every group must form an orthonormal basis.

A document loads in two phases. It is first decoded whole: the
tolerances, every matrix or every ray, and every group's ray names, so a
document that does not parse raises its first ``ParseError`` in document
order, whatever check would fail. All matrices, or all rays, are decoded
in one numpy call; the per-entry walk runs only for a payload that call
rejects, to name what is wrong with it. The decoded payload is then
checked in document order: the rays' norms, then context by context.
"""
from __future__ import annotations

import gc
import json
import math
from numbers import Real

import numpy as np

from . import linalg
from .errors import ParseError, ValidationError
# ``validate_projector``, ``validate_context`` and ``context_from_basis``
# are no longer called here; they stay importable from this module, where
# bench/tracing.py wraps them.
from .projectors import (  # noqa: F401
    ContextCollection,
    _basis_contexts,
    _checked_stack,
    context_from_basis,
    validate_context,
    validate_projector,
)
from .tolerance import TolerancePolicy

TOLERANCE_FIELDS = ("eps_rank", "eps_entry", "eps_subspace")


def _parse_complex(entry, where: str) -> complex:
    if (
        not isinstance(entry, (list, tuple))
        or len(entry) != 2
        or not all(isinstance(part, Real) for part in entry)
    ):
        raise ParseError(f"{where}: expected a [re, im] number pair, got {entry!r}")
    try:
        value = complex(entry[0], entry[1])
    except OverflowError as exc:  # an integer past the float range
        raise ParseError(f"{where}: entries must lie within the float range") from exc
    if not np.isfinite(value):
        raise ParseError(f"{where}: entries must be finite")
    return value


def _decode(obj, shape: tuple[int, ...]) -> np.ndarray | None:
    """The ``[re, im]`` pairs as complex128 in one call, or None for the walk.

    Only a finite boolean, integer or float array of exactly ``shape``
    qualifies. The pairs are read through a complex view of their float64
    copy, which keeps signed zeros (``re + 1j * im`` would lose a ``-0.0``
    imaginary part).
    """
    try:
        arr = np.array(obj)
    except (ValueError, TypeError, OverflowError):
        return None
    if arr.shape != shape or arr.dtype.kind not in "biuf" or not np.isfinite(arr).all():
        return None
    return np.ascontiguousarray(arr, dtype=np.float64).view(np.complex128)[..., 0]


def _parse_vector(obj, dim: int, where: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != dim:
        raise ParseError(f"{where}: expected a vector of {dim} [re, im] pairs")
    return np.array(
        [_parse_complex(entry, f"{where}[{i}]") for i, entry in enumerate(obj)]
    )


def _parse_matrix(obj, dim: int, where: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != dim:
        raise ParseError(f"{where}: expected a {dim}x{dim} matrix as {dim} rows")
    return np.array(
        [
            [
                _parse_complex(entry, f"{where}[{r}][{c}]")
                for c, entry in enumerate(_expect_row(row, dim, f"{where}[{r}]"))
            ]
            for r, row in enumerate(obj)
        ]
    )


def _expect_row(row, dim: int, where: str) -> list:
    if not isinstance(row, list) or len(row) != dim:
        raise ParseError(f"{where}: expected a row of {dim} [re, im] pairs")
    return row


def _matrix_contexts(contexts_obj: dict, dim: int, tol: TolerancePolicy) -> list:
    """Every matrix-form context of a document, decoded whole, then checked as one stack.

    All matrices are decoded in one call into one (M, dim, dim) member
    stack. A payload that call rejects, a ragged or short one included, is
    walked context by context, matrix by matrix and entry by entry
    (``_parse_matrix``), and the first part that does not parse raises; the
    walk keeps each member as it parses, so neither ``dim`` nor a member
    count is trusted before the payload backs it. One ``_checked_stack``
    call then checks the stack, whose first failing context raises.
    """
    entries = list(contexts_obj.values())
    counts = [len(matrices) if isinstance(matrices, list) else 0 for matrices in entries]
    stack = None
    if all(counts):
        stack = _decode([m for matrices in entries for m in matrices], (sum(counts), dim, dim, 2))
    if stack is None:
        parsed = []
        for name, matrices in contexts_obj.items():
            if not isinstance(matrices, list) or not matrices:
                raise ParseError(f"context {name!r} must be a non-empty array of matrices")
            parsed += [
                _parse_matrix(matrix, dim, f"contexts[{name}][{i}]")
                for i, matrix in enumerate(matrices)
            ]
        stack = np.array(parsed)
    labels = [f"{name}[{i}]" for name, count in zip(contexts_obj, counts) for i in range(count)]
    return _checked_stack(stack, tol, labels, list(contexts_obj), counts)[1]


def _norm(vector: np.ndarray) -> float:
    """``np.linalg.norm`` of one contiguous complex vector, bit for bit.

    It takes the same two real ``dot`` calls over the real and imaginary
    parts, adds them and takes one square root, which IEEE arithmetic
    rounds correctly in ``math.sqrt`` and numpy alike, without the
    argument handling that makes one call cost several microseconds.
    """
    real, imag = vector.real, vector.imag
    return math.sqrt(real.dot(real) + imag.dot(imag))


def _decoded_rays(rays_obj: dict, dim: int) -> np.ndarray:
    """Every ray as one (rays, dim) row array in document order.

    All rays are decoded in one call. A payload that call rejects, a ragged
    or short one included, is walked ray by ray and entry by entry
    (``_parse_vector``), and the first ray that does not parse raises; the
    walk keeps each ray as it parses, so a ``dim`` the payload does not back
    allocates nothing.
    """
    vectors = list(rays_obj.values())
    rows = _decode(vectors, (len(vectors), dim, 2))
    if rows is None:
        rows = np.array(
            [_parse_vector(vector, dim, f"rays[{name}]") for name, vector in rays_obj.items()]
        )
    return rows


def _unit_rays(rows: np.ndarray, names: list) -> np.ndarray:
    """The decoded rays ``rows``, named ``names``, normalized; the first ray
    of zero norm raises.

    One ``linalg.power_of_two_scaled`` call first scales each ray by the
    power of two that brings its largest real or imaginary part into
    [1/2, 1), which is exact, so no norm overflows or underflows; a ray
    whose plain norm does neither keeps the bits of its division by it.
    """
    scaled = linalg.power_of_two_scaled(rows.view(np.float64))[0].view(np.complex128)
    # One norm per ray: a norm along axis 1 may round differently.
    norms = np.array([_norm(row) for row in scaled])
    if not norms.all():
        raise ValidationError(f"ray {names[int(np.argmin(norms))]!r} has zero norm")
    return scaled / norms[:, None]


def _group_rays(group_name, ray_names, index: dict) -> list[int]:
    """Row indices of a group's rays, or a ``ParseError`` naming what is wrong."""
    if not isinstance(ray_names, list) or not ray_names:
        raise ParseError(f"group {group_name!r} must be a non-empty array of ray names")
    rows = []
    for pos, ray_name in enumerate(ray_names):
        if not isinstance(ray_name, str):
            raise ParseError(
                f"group {group_name!r}[{pos}]: expected a ray name string, got {ray_name!r}"
            )
        if ray_name not in index:
            raise ParseError(f"group {group_name!r} references unknown ray {ray_name!r}")
        rows.append(index[ray_name])
    return rows


def _ray_contexts(rays: np.ndarray, names: list, groups: list, tol: TolerancePolicy) -> list:
    """The contexts of every ``(name, row indices)`` group, in document order.

    ``names`` are the ray names of the rows of ``rays``. The groups before
    the first one that does not have ``dim`` rays are checked as one (C, dim)
    index array over the rays by one ``_basis_contexts`` call, which raises
    for the first failing group, and a ray that several groups name is one
    member of all of their contexts. A group of another size then fails its
    own check. Either way the first failing group raises what it raises on
    its own, with its name in the message.
    """
    dim = rays.shape[1]
    cut = next((k for k, (_, rows) in enumerate(groups) if len(rows) != dim), len(groups))

    def checked(part):
        if not part:
            return []
        group_names, indices = zip(*part)
        return _basis_contexts(rays, np.array(indices), tol, group_names, names)

    return checked(groups[:cut]) + checked(groups[cut : cut + 1])


def _parse_tolerances(data: dict, overrides: dict | None) -> TolerancePolicy:
    fields = {}
    for key in TOLERANCE_FIELDS:
        if key in data:
            if isinstance(data[key], bool) or not isinstance(data[key], Real):
                raise ParseError(f"{key!r} must be a number")
            fields[key] = float(data[key])
    if overrides:
        fields.update({k: float(v) for k, v in overrides.items() if v is not None})
    try:
        return TolerancePolicy(**fields)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_document(
    data, tol_overrides: dict | None = None
) -> tuple[ContextCollection, TolerancePolicy]:
    """Build a validated collection from a decoded document object.

    ``tol_overrides`` (e.g. CLI flags) take precedence over the document's
    own tolerance fields. Raises the first ``ParseError`` of a malformed
    document, in document order, before any check runs; a document that
    parses raises ``ValidationError`` (with the context name and residual)
    for its first ray of zero norm or, after those, its first context whose
    operators fail their axioms.
    """
    if not isinstance(data, dict):
        raise ParseError("document root must be a JSON object")
    dim = data.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError("'dim' must be a positive integer")
    tol = _parse_tolerances(data, tol_overrides)

    has_contexts = "contexts" in data
    has_rays = "rays" in data or "groups" in data
    if has_contexts == has_rays:
        raise ParseError("document must contain exactly one of 'contexts' or 'rays'+'groups'")

    if has_contexts:
        contexts_obj = data["contexts"]
        if not isinstance(contexts_obj, dict) or not contexts_obj:
            raise ParseError("'contexts' must be a non-empty object")
        return ContextCollection(_matrix_contexts(contexts_obj, dim, tol), tol), tol

    rays_obj = data.get("rays")
    groups_obj = data.get("groups")
    if not isinstance(rays_obj, dict) or not rays_obj:
        raise ParseError("'rays' must be a non-empty object")
    if not isinstance(groups_obj, dict) or not groups_obj:
        raise ParseError("'groups' must be a non-empty object")
    rows = _decoded_rays(rays_obj, dim)
    names = list(rays_obj)
    index = {name: k for k, name in enumerate(names)}
    groups = [(name, _group_rays(name, group, index)) for name, group in groups_obj.items()]
    rays = _unit_rays(rows, names)
    return ContextCollection(_ray_contexts(rays, names, groups, tol), tol), tol


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    data = {}
    for key, value in pairs:
        if key in data:
            raise ParseError(f"duplicate key {key!r}")
        data[key] = value
    return data


def load_document(
    path, tol_overrides: dict | None = None
) -> tuple[ContextCollection, TolerancePolicy]:
    """Read and parse a document file.

    A file that is not UTF-8 is a ``ParseError``. A key repeated within one
    JSON object (two contexts or two rays of the same name, say) is one too:
    plain JSON decoding would silently keep the last one. The cyclic garbage
    collector is paused while the file is decoded and parsed: the many small
    lists JSON builds would set it off, once or more per load, yet they form
    no cycles. They are dropped before it resumes, which takes their count
    back off its allocation counter. The caller's collector state is
    restored afterwards.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        data = _read_json(path)
        return parse_document(data, tol_overrides)
    finally:
        data = None
        if collecting:
            gc.enable()


def _read_json(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8: {exc}") from exc
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def matrix_to_json(array) -> list:
    """``[re, im]`` float pairs in the shape of a complex ``array`` (a
    matrix, a vector or a stack), from one ``tolist``."""
    arr = np.asarray(array, dtype=complex)
    return np.stack((arr.real, arr.imag), -1).tolist()


def collection_to_document(
    collection: ContextCollection, tol: TolerancePolicy | None = None
) -> dict:
    """Serialize a collection in matrix form; parsing it back reproduces the
    same matrices bit-for-bit (JSON floats round-trip exactly)."""
    doc: dict = {"dim": collection.ambient_dim}
    if tol is not None:
        doc["eps_rank"] = tol.eps_rank
        doc["eps_entry"] = tol.eps_entry
        doc["eps_subspace"] = tol.eps_subspace
    doc["contexts"] = {
        ctx.name: [matrix_to_json(p.matrix) for p in ctx.members]
        for ctx in collection.contexts
    }
    return doc


def save_document(
    collection: ContextCollection, path, tol: TolerancePolicy | None = None
) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(collection_to_document(collection, tol), handle, indent=2)
        handle.write("\n")
