"""Ray-form contexts checked from their Gram matrix, with their rays as lattice atoms.

A context built from a basis takes its pairwise products and idempotency
residuals from the Gram matrix of its vectors, and ``context_lattice`` takes
the vectors as atoms. Every other context multiplies its members and takes
one SVD. These tests check that the ray route is taken, that it gives the
verdicts of the matrix-form twin of the same document, and that it fails
where the dense route fails.
"""
import json
import re

import numpy as np
import pytest

import projlat as pl
from conftest import KS18_GROUPS, from_basis, ks18_document, rank1_bound, rays_of
from projlat.cli import main
from projlat.lattice import _atoms

LOOSE = pl.TolerancePolicy(eps_rank=1e-10, eps_entry=0.3, eps_subspace=0.3)


def _haar(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _ray_document(bases, names=None):
    """One group per (n, n) basis, its columns as rays ``<group><k>``."""
    names = names or [chr(ord("a") + g) for g in range(len(bases))]
    rays, groups = {}, {}
    for name, basis in zip(names, bases):
        groups[name] = [f"{name}{k}" for k in range(basis.shape[1])]
        for k, column in enumerate(basis.T):
            rays[f"{name}{k}"] = [[z.real, z.imag] for z in column.tolist()]
    return {"dim": bases[0].shape[0], "rays": rays, "groups": groups}


def _ks18_times_c2(rng):
    """KS-18 tensored with the standard basis of C^2, turned by a Haar unitary."""
    u = _haar(rng, 8)
    bases = []
    for group in KS18_GROUPS:
        rays = [np.array(ray) / np.linalg.norm(ray) for ray in group]
        bases.append(u @ np.array([np.kron(ray, e) for e in np.eye(2) for ray in rays]).T)
    return _ray_document(bases, [f"c{g}" for g in range(len(bases))])


def _planted(rng, n):
    """Two bases of C^n that split along the same turned block decomposition."""
    frame = _haar(rng, n)
    cut = int(rng.integers(1, n))
    bases = []
    for _ in range(2):
        block = np.zeros((n, n), dtype=complex)
        block[:cut, :cut] = _haar(rng, cut)
        block[cut:, cut:] = _haar(rng, n - cut)
        bases.append(frame @ block)
    return _ray_document(bases)


def corpus():
    rng = np.random.default_rng(2400)
    docs = [("ks18", ks18_document()), ("ks18xC2", _ks18_times_c2(rng))]
    docs += [(f"haar{n}", _ray_document([_haar(rng, n), _haar(rng, n)])) for n in range(2, 13)]
    docs += [(f"planted{n}", _planted(rng, n)) for n in (2, 3, 4, 6, 8)]
    return docs


def _twin(doc):
    """The matrix-form twin of a ray document, and its labels in ray names."""
    collection, tol = pl.parse_document(doc)
    names = {
        f"{ctx.name}[{i}]": label
        for ctx in collection.contexts
        for i, label in enumerate(ctx.labels)
    }
    return pl.collection_to_document(collection, tol), names


def _in_ray_names(text, names):
    return re.sub(r"[^\[\]+()]+\[\d+\]", lambda m: names[m.group(0)], text)


def _report(tmp_path, capsys, command, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = main([command, str(path), "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    return code, report


class TestMechanism:
    def test_ray_documents_take_no_member_products(self, monkeypatch):
        calls = []
        measure = pl.projectors._measure

        def counted(stack, *args):
            calls.append(stack.shape)
            return measure(stack, *args)

        monkeypatch.setattr(pl.projectors, "_measure", counted)
        for _, doc in corpus():
            collection, _ = pl.parse_document(doc)
            assert all(from_basis(ctx) for ctx in collection.contexts)
        assert calls == []
        # The matrix twin's nine contexts take one products pass.
        pl.parse_document(_twin(ks18_document())[0])
        assert calls == [(36, 4, 4)]

    def test_ray_documents_take_no_dense_checks(self, monkeypatch):
        # ``document`` binds ``_checked_stack`` at import, so both names are spied on.
        calls = []
        checked = pl.projectors._checked_stack

        def counted(stack, *args):
            calls.append(stack.shape)
            return checked(stack, *args)

        monkeypatch.setattr(pl.projectors, "_checked_stack", counted)
        monkeypatch.setattr(pl.document, "_checked_stack", counted)
        for _, doc in corpus():
            pl.parse_document(doc)
        pl.context_from_basis(list(np.eye(3)))
        assert calls == []
        # The matrix twin is checked as one stack of its 36 members.
        pl.parse_document(_twin(ks18_document())[0])
        assert calls == [(36, 4, 4)]

    def test_ray_members_are_hermitian_within_the_rank1_bound(self):
        # No Hermitian residual is taken for v v^H; the dense one stays at roundoff.
        docs = corpus() + [("haar64", _ray_document([_haar(np.random.default_rng(2401), 64)]))]
        for _, doc in docs:
            collection, _ = pl.parse_document(doc)
            for ctx in collection.contexts:
                stack = np.array([p.matrix for p in ctx.members])
                herm = np.abs(stack - stack.conj().swapaxes(1, 2)).max()
                assert herm <= rank1_bound(rays_of(ctx))

    def test_ray_contexts_take_no_svd(self, monkeypatch):
        # A matrix-form document is factored once, at load, by one SVD of all
        # its members with their left singular vectors; a context's lattice
        # reads that factor and takes no SVD.
        svd = np.linalg.svd
        calls = []

        def counted(*args, **kwargs):
            calls.append((args[0].shape, kwargs.get("compute_uv", True)))
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        ray_form, _ = pl.parse_document(ks18_document())
        for ctx in ray_form.contexts:
            assert pl.context_lattice(ctx).size == 16
        assert calls == []
        matrix_form, _ = pl.parse_document(_twin(ks18_document())[0])
        assert calls == [((36, 4, 4), True)]
        for ctx in matrix_form.contexts:
            assert not from_basis(ctx) and pl.context_lattice(ctx).size == 16
        assert len(calls) == 1

    def test_kept_rays_are_read_only_rows_of_the_members(self):
        collection, _ = pl.parse_document(ks18_document())
        for ctx in collection.contexts:
            assert all(p._range.shape == (4, 1) and not p._range.flags.writeable for p in ctx.members)
            for ray, member in zip(rays_of(ctx), ctx.members):
                assert np.outer(ray, ray.conj()).tobytes() == member.matrix.tobytes()
        # Equality and the repr ignore the residuals.
        ctx = collection.contexts[0]
        assert ctx == pl.MaximalContext(ctx.name, ctx.members)
        assert "ranges" not in repr(ctx)


class TestCrossFormAgreement:
    """Each ray document against its matrix-form twin, which takes the dense route."""

    @pytest.mark.parametrize("name, doc", corpus(), ids=[name for name, _ in corpus()])
    def test_same_verdicts(self, tmp_path, capsys, name, doc):
        twin, names = _twin(doc)
        ray_form, _ = pl.parse_document(doc)
        for command in ("ks-search", "irreducible", "intersect"):
            code, ray_report = _report(tmp_path, capsys, command, doc)
            twin_code, twin_report = _report(tmp_path, capsys, command, twin)
            assert code == twin_code
            got, want = ray_report["verdicts"], twin_report["verdicts"]
            if command == "ks-search":
                for entry in want["assignment"] or []:
                    entry["label"] = names[entry["label"]]
                assert got == want
            elif command == "irreducible":
                assert got == want
            else:
                assert got["per_context_sizes"] == want["per_context_sizes"]
                assert got["trivial"] == want["trivial"]
                mine, theirs = got["intersection"], want["intersection"]
                assert mine["size"] == theirs["size"]
                for a, b in zip(mine["elements"], theirs["elements"]):
                    assert a["label"] == _in_ray_names(b["label"], names)
                    assert a["dim"] == b["dim"]
            for context, residuals in ray_report["residuals"].items():
                dense = twin_report["residuals"][context]
                gap = abs(residuals["pairwise_product"] - dense["pairwise_product"])
                assert gap <= rank1_bound(rays_of(ray_form.context_named(context)))
                assert residuals["sum_minus_identity"] == dense["sum_minus_identity"]

    @pytest.mark.parametrize("name, doc", corpus(), ids=[name for name, _ in corpus()])
    def test_same_lattices(self, name, doc):
        ray_form, tol = pl.parse_document(doc)
        twin, names = _twin(doc)
        matrix_form, _ = pl.parse_document(twin)
        ray_families = [pl.context_lattice(ctx) for ctx in ray_form.contexts]
        matrix_families = [pl.context_lattice(ctx) for ctx in matrix_form.contexts]
        pairs = list(zip(ray_families, matrix_families))
        pairs.append(tuple(pl.intersect_lattices(f) for f in (ray_families, matrix_families)))
        for mine, theirs in pairs:
            assert mine.size == theirs.size
            if mine.size <= 64:
                assert mine.labels == tuple(_in_ray_names(label, names) for label in theirs.labels)
                for a, b in zip(mine.elements, theirs.elements):
                    assert a.equals(b, tol)
            else:
                for a, b in zip(_atoms(mine), _atoms(theirs)):
                    assert pl.Subspace(mine.ambient_dim, a).equals(
                        pl.Subspace(theirs.ambient_dim, b), tol
                    )

    def test_corpus_covers_both_verdicts(self, tmp_path, capsys):
        seen = set()
        for _, doc in corpus():
            _, report = _report(tmp_path, capsys, "irreducible", doc)
            _, search = _report(tmp_path, capsys, "ks-search", doc)
            seen.add((report["verdicts"]["irreducible"], search["verdicts"]["status"]))
        assert seen >= {(True, "UNSAT"), (True, "SAT"), (False, "SAT"), (False, "UNSAT")}


def _dense_outcome(basis, tol):
    """What validating each ``v v^H`` and then their context raises."""
    try:
        members = [
            pl.validate_projector(np.outer(v, v.conj()), tol, f"m{i}") for i, v in enumerate(basis)
        ]
        pl.validate_context(members, tol, name="ctx")
    except pl.ValidationError as exc:
        return exc
    return None


def _loose_bases(rng):
    """Bases near the coordinate axes, some vectors lengthened, one pair turned
    towards each other: most pass a Gram check at eps_entry 0.3 and fail the
    pairwise or the idempotency check."""
    for _ in range(200):
        n = int(rng.integers(2, 7))
        basis = np.eye(n, dtype=complex) + 0.01 * (
            rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        )
        i, j = rng.choice(n, size=2, replace=False)
        basis[j] += rng.uniform(0.18, 0.26) * basis[i]
        basis /= np.linalg.norm(basis, axis=1)[:, None]
        basis *= np.sqrt(1 + rng.uniform(0.0, 0.29, size=n))[:, None]
        yield list(basis)


class TestErrorParity:
    def test_loose_bases_fail_as_on_the_dense_route(self):
        rng = np.random.default_rng(2450)
        raised = set()
        for basis in _loose_bases(rng):
            stacked = np.column_stack(basis)
            if not np.abs(stacked.conj().T @ stacked - np.eye(len(basis))).max() <= LOOSE.eps_entry:
                continue
            want = _dense_outcome(basis, LOOSE)
            try:
                pl.context_from_basis(basis, LOOSE, name="ctx")
                got = None
            except pl.ValidationError as exc:
                got = exc
            assert type(got) is type(want)
            if isinstance(want, pl.PairwiseProductNonzeroError):
                assert got.pair == want.pair
                assert abs(got.residual - want.residual) <= rank1_bound(stacked.T)
            if want is not None:
                raised.add(type(want))
        assert raised >= {pl.PairwiseProductNonzeroError, pl.NotIdempotentError}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_huge_rays_still_fail_orthonormality(self):
        rng = np.random.default_rng(2460)
        for n in (2, 4, 8):
            basis = _haar(rng, n).T
            for scaled in (1e200 * basis, np.vstack([1e200 * basis[:1], basis[1:]])):
                with pytest.raises(pl.NotOrthonormalError) as info:
                    pl.context_from_basis(list(scaled))
                assert not info.value.residual <= 1.0
