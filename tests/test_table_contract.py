"""One table contract, two readers: the C emitters and the NumPy reference kernels.

``repro.compiler.codegen.tables`` names every inspection set and size once.
These tests hold the three things that follow from it: both backends hand
their kernel the same block; the generated C is pinned byte for byte, so a
change to it is deliberate; and the two kernels fail alike.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.compiler.cache import ArtifactCache
from repro.compiler.codegen.c_backend import c_compiler_available, disk_cache_stats
from repro.compiler.options import SympilerOptions
from repro.compiler.registry import _KERNELS
from repro.compiler.sympiler import Sympiler
from repro.service.wire import TOOLCHAIN_OPTIONS
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import fem_stencil_2d, laplacian_2d, laplacian_3d, sparse_rhs
from repro.sparse.ordering import minimum_degree_ordering
from repro.symbolic.inspector import inspect_cholesky

needs_cc = pytest.mark.skipif(not c_compiler_available("cc"), reason="no C compiler available")

METHODS = list(_KERNELS)
FACTORIZATIONS = [name for name in METHODS if name != "triangular-solve"]


#: A pattern VS-Block takes and one it leaves alone (minimum-degree order).
_GRID = laplacian_2d(7, shift=0.1)
PATTERNS = {
    "fem": fem_stencil_2d(6, shift=0.25),
    "mindeg": minimum_degree_ordering(_GRID).symmetric_permute(_GRID),
}


def _operand(sym, method, A):
    """``A`` for a factorization, the pattern of its Cholesky factor for the solve."""
    if method != "triangular-solve":
        return A
    return sym.compile("cholesky", A).inspection.l_pattern_matrix()


# --------------------------------------------------------------------------- #
# (a) Both backends bind the same block
# --------------------------------------------------------------------------- #
@needs_cc
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("pattern", sorted(PATTERNS))
def test_both_backends_hold_the_same_table_block(pattern, method):
    sym = Sympiler(cache=ArtifactCache())
    operand = _operand(sym, method, PATTERNS[pattern])
    python, serial, wavefront = (
        sym.compile(method, operand, options=SympilerOptions(**options)).constants
        for options in ({"backend": "python"}, {"backend": "c"}, {"backend": "c", "parallel": "wavefront"})
    )
    assert list(python) == list(serial) == list(wavefront) and list(serial)[0] == "_C_dims"
    for name, table in serial.items():
        assert table.dtype == python[name].dtype == np.int64
        assert table.flags.c_contiguous and python[name].flags.c_contiguous
        np.testing.assert_array_equal(python[name], table, err_msg=name)
        np.testing.assert_array_equal(wavefront[name], table, err_msg=name)


@needs_cc
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("pattern", sorted(PATTERNS))
def test_wavefront_compiles_the_serial_source_and_shares_its_so(pattern, method, tmp_path, monkeypatch):
    """``parallel="wavefront"`` prints the serial source byte for byte: the pair costs one ``cc`` run."""
    monkeypatch.setenv("REPRO_SYMPILER_CACHE", str(tmp_path))
    sym = Sympiler(cache=ArtifactCache())
    operand = _operand(sym, method, PATTERNS[pattern])
    before = disk_cache_stats().as_dict()
    serial, wavefront = (
        sym.compile(method, operand, options=SympilerOptions(backend="c", parallel=parallel))
        for parallel in ("none", "wavefront")
    )
    after = disk_cache_stats().as_dict()
    assert wavefront.source == serial.source
    assert wavefront.module.shared_object == serial.module.shared_object
    assert (after["compiles"] - before["compiles"], after["reuses"] - before["reuses"]) == (1, 1)
    assert (serial.parallel_mode, wavefront.parallel_mode) == ("none", "serial-fallback")
    assert wavefront.decisions["wavefront"] == {"mode": "serial-fallback", "fallback_reason": "no-schedule"}
    assert "wavefront" not in serial.decisions


# --------------------------------------------------------------------------- #
# (d) The generated C did not move
# --------------------------------------------------------------------------- #
#: sha256 over the sources of three option bundles (all passes / no VS-Block /
#: nothing), per pattern, C method spec and parallel
#: mode, re-based when each kernel's step body became one C function called by
#: the serial loop and the wavefront job (and the unrolled switch went), and
#: re-based for Cholesky, LDLᵀ and LU when the supernode loop went to one block
#: update per descendant supernode (the work-buffer runtime, which LU shares,
#: lost its multiplier slot), and re-based for Cholesky, LDLᵀ and LU when the
#: supernode step went to register tiles (its entry reserves no work vector
#: and clears none, the wavefront job reserves before it clears, and the
#: work-buffer runtime's comments moved out of the generated source), and
#: re-based when the no-low-level bundle, which compiled what the first one
#: does since loop distribution stopped being planned, left the list, and
#: re-based for Cholesky, LDLᵀ and LU when their modules gained the solve
#: entry (``<entry>_solve`` and the ``REPRO_PIVOT`` macro it reads), and
#: re-based for IC(0) when its module gained the same entry (and its block the
#: ``l_indices`` table the entry reads), and for the wavefront triangular
#: solve when its pull-form job went, and for every ``"wavefront"`` key when
#: the factorizations' wavefront job and the ``n_threads`` argument went: each
#: is now its ``"none"`` twin, the serial source byte for byte; and re-based for
#: the VS-Block'd Cholesky and LDLᵀ ("fem" keys only: "mindeg" is not blocked)
#: when the panel's scalar triangle and column scaling became explicit
#: ``repro_v4`` sweeps, as the modules are built without the auto-vectorizer.
_OPTION_BUNDLES = (
    {},
    {"enable_vs_block": False},
    {"enable_vi_prune": False, "enable_vs_block": False},
)
_PINNED_C_SOURCES = {
    ("fem", "triangular-solve", "none"): "c0493e6ca408bb29fc6b5aeb1373b1ac9a1fcb989d3cc2d4aeeb205d5cd4d267",
    ("fem", "triangular-solve", "wavefront"): "c0493e6ca408bb29fc6b5aeb1373b1ac9a1fcb989d3cc2d4aeeb205d5cd4d267",
    ("fem", "cholesky", "none"): "ef00ecdefcfc6a6e6b10bab2b59c87037ed8b8168c65a01af98af311cb89516a",
    ("fem", "cholesky", "wavefront"): "ef00ecdefcfc6a6e6b10bab2b59c87037ed8b8168c65a01af98af311cb89516a",
    ("fem", "ldlt", "none"): "e19295fa0d3cb83d4221bb0ffe77e88dab5975d200b7ecfda4a739623fd8bebe",
    ("fem", "ldlt", "wavefront"): "e19295fa0d3cb83d4221bb0ffe77e88dab5975d200b7ecfda4a739623fd8bebe",
    ("fem", "lu", "none"): "f6ef5acadecf9b90f737830a73993faa04a56626a714f0df956b9ffde547f370",
    ("fem", "lu", "wavefront"): "f6ef5acadecf9b90f737830a73993faa04a56626a714f0df956b9ffde547f370",
    ("fem", "ic0", "none"): "07d571411191581c113607030220b6c1313458779db2192ad3e661e6714a9b4e",
    ("fem", "ic0", "wavefront"): "07d571411191581c113607030220b6c1313458779db2192ad3e661e6714a9b4e",
    ("mindeg", "triangular-solve", "none"): "c0493e6ca408bb29fc6b5aeb1373b1ac9a1fcb989d3cc2d4aeeb205d5cd4d267",
    ("mindeg", "triangular-solve", "wavefront"): "c0493e6ca408bb29fc6b5aeb1373b1ac9a1fcb989d3cc2d4aeeb205d5cd4d267",
    ("mindeg", "cholesky", "none"): "833ba3178b424a07e3e4817c8438899f90531f1f262a6a0653517007598a9a7e",
    ("mindeg", "cholesky", "wavefront"): "833ba3178b424a07e3e4817c8438899f90531f1f262a6a0653517007598a9a7e",
    ("mindeg", "ldlt", "none"): "707983cc1b0b2ff2b143691337859c01a55b5ade5a6958236628b8e46187c8cd",
    ("mindeg", "ldlt", "wavefront"): "707983cc1b0b2ff2b143691337859c01a55b5ade5a6958236628b8e46187c8cd",
    ("mindeg", "lu", "none"): "f6ef5acadecf9b90f737830a73993faa04a56626a714f0df956b9ffde547f370",
    ("mindeg", "lu", "wavefront"): "f6ef5acadecf9b90f737830a73993faa04a56626a714f0df956b9ffde547f370",
    ("mindeg", "ic0", "none"): "07d571411191581c113607030220b6c1313458779db2192ad3e661e6714a9b4e",
    ("mindeg", "ic0", "wavefront"): "07d571411191581c113607030220b6c1313458779db2192ad3e661e6714a9b4e",
}


# --------------------------------------------------------------------------- #
# The table blocks did not move
# --------------------------------------------------------------------------- #
#: The patterns above and a 3-D one whose supernodes are wide enough to block.
_GRID_3D = laplacian_3d(7, shift=0.1)
TABLE_PATTERNS = {**PATTERNS, "mindeg3d": minimum_degree_ordering(_GRID_3D).symmetric_permute(_GRID_3D)}
#: The serial methods, and the triangular solve once more with a sparse right-hand side.
TABLE_CASES = [*METHODS, "triangular-solve/sparse-rhs"]

#: sha256 over the ordered keys and bytes of ``artifact.constants`` on the python backend, one per
#: option bundle of ``_OPTION_BUNDLES`` (in its order), computed at the commit before the tables
#: became array expressions (7a05fcc); the supernodal Cholesky / LDLᵀ blocks re-based when the
#: descendant table became one row per descendant supernode, and the no-low-level bundle's
#: blocks left with it; the IC(0) blocks re-based when they gained ``l_indices``, which the
#: module's solve entry reads.  Needs no C compiler: the contract is backend-independent.
_PINNED_TABLE_BLOCKS = {
    ("fem", "triangular-solve"): (
        "32a2930371574950474fe31de4ff0ae6e5435e3a5d44591f85ea04dbc5aecb38",
        "c69f87eb9d7f99fe8d804334c079c55dac220f60b2cc876b0c4cbac923243f75",
        "d30c183250cc3e60b58f114f3f73111e20577e01d6c91169391e5aca2239c9df",
    ),
    ("fem", "cholesky"): (
        "05a61ab3fcb4814b3daca33d1f5eae42cec05d17df27fdd7d8a3e5b74fa5e818",
        "ef1da2ebbcfd3a5a42bf139da9df9921aaebe1c522b79a14918d135fa9e2cd54",
        "ef1da2ebbcfd3a5a42bf139da9df9921aaebe1c522b79a14918d135fa9e2cd54",
    ),
    ("fem", "ldlt"): (
        "05a61ab3fcb4814b3daca33d1f5eae42cec05d17df27fdd7d8a3e5b74fa5e818",
        "491deb123dbb503e9e2d8df05f5ae285b75c76d321fe9eeff40a922cedd15e1b",
        "491deb123dbb503e9e2d8df05f5ae285b75c76d321fe9eeff40a922cedd15e1b",
    ),
    ("fem", "lu"): (
        "9648d8cdcc7de5e76c9d5aed33de19eeeb5ffa5d8f615644085e68f63c54e02f",
        "9648d8cdcc7de5e76c9d5aed33de19eeeb5ffa5d8f615644085e68f63c54e02f",
        "9648d8cdcc7de5e76c9d5aed33de19eeeb5ffa5d8f615644085e68f63c54e02f",
    ),
    ("fem", "ic0"): (
        "e69a925d015cf6bc8b929b2171190a53b510d155aa2c80f4a9d5ea284719f6d6",
        "e69a925d015cf6bc8b929b2171190a53b510d155aa2c80f4a9d5ea284719f6d6",
        "e69a925d015cf6bc8b929b2171190a53b510d155aa2c80f4a9d5ea284719f6d6",
    ),
    ("fem", "triangular-solve/sparse-rhs"): (
        "dbf7de32ac46cff4038e6a4a05e0e8a8e285ed10d2c59209bccf8d0096f57d78",
        "a33ea9de056d65e105a489c58a2daf1c43c6c83d35d29a4c9076f8dd817c0c63",
        "d30c183250cc3e60b58f114f3f73111e20577e01d6c91169391e5aca2239c9df",
    ),
    ("mindeg", "triangular-solve"): (
        "f1e145679fba7d7b214de24fdac922271ba9fa272702805025ae239db3f739c1",
        "f1e145679fba7d7b214de24fdac922271ba9fa272702805025ae239db3f739c1",
        "eb24e653c9423bfddabe92fe68ba936d472ea9387e1e03567f5d9f465b985578",
    ),
    ("mindeg", "cholesky"): (
        "2fa600e1591a6c05d77e7f573ec9e2417bc9e99a19fba4fe5e2dc9ac2080537a",
        "2fa600e1591a6c05d77e7f573ec9e2417bc9e99a19fba4fe5e2dc9ac2080537a",
        "2fa600e1591a6c05d77e7f573ec9e2417bc9e99a19fba4fe5e2dc9ac2080537a",
    ),
    ("mindeg", "ldlt"): (
        "497563b42066db877b7eb6132602e44f51fa439b8530c7877673d0018ec3eb3e",
        "497563b42066db877b7eb6132602e44f51fa439b8530c7877673d0018ec3eb3e",
        "497563b42066db877b7eb6132602e44f51fa439b8530c7877673d0018ec3eb3e",
    ),
    ("mindeg", "lu"): (
        "54f6a530e5942b4cb9a5e9d7be0f06387fd2758ca63b8fc1498c67473d30441a",
        "54f6a530e5942b4cb9a5e9d7be0f06387fd2758ca63b8fc1498c67473d30441a",
        "54f6a530e5942b4cb9a5e9d7be0f06387fd2758ca63b8fc1498c67473d30441a",
    ),
    ("mindeg", "ic0"): (
        "dbb8a5415069a01a90fafbe94f3f934c67574ae4c43cd7fb190a588f80ca40ea",
        "dbb8a5415069a01a90fafbe94f3f934c67574ae4c43cd7fb190a588f80ca40ea",
        "dbb8a5415069a01a90fafbe94f3f934c67574ae4c43cd7fb190a588f80ca40ea",
    ),
    ("mindeg", "triangular-solve/sparse-rhs"): (
        "44f2a8ae6dc241c77d6ce477977e1661deb3d4b6a2b62c794e14044cba09616b",
        "44f2a8ae6dc241c77d6ce477977e1661deb3d4b6a2b62c794e14044cba09616b",
        "eb24e653c9423bfddabe92fe68ba936d472ea9387e1e03567f5d9f465b985578",
    ),
    ("mindeg3d", "triangular-solve"): (
        "5e0cd27c76a2f5a72bfd3627f63cd697517c0a4f62b3b36b7c19593ebfd5777f",
        "979b2b213767a41ced47ac36ad903574b4064ea03480e314a2d4533e6cc1d45c",
        "c46f879450ba7b9aef248d5ce50e2afabfea2e6b046d31e6fe12e95c0f7b6c64",
    ),
    ("mindeg3d", "cholesky"): (
        "232b962c6c2f08e5afd9a81b4cad37c0ca7d63035efc072439625d7d2f9dd1c3",
        "d98146efee572a89337b0f1959b74da96e4bb20613f5db2106c9b44e98d5afab",
        "d98146efee572a89337b0f1959b74da96e4bb20613f5db2106c9b44e98d5afab",
    ),
    ("mindeg3d", "ldlt"): (
        "232b962c6c2f08e5afd9a81b4cad37c0ca7d63035efc072439625d7d2f9dd1c3",
        "744ea5404948ca221ce8130024c18fd0facb62e9215fc1b2dccd763753ec3521",
        "744ea5404948ca221ce8130024c18fd0facb62e9215fc1b2dccd763753ec3521",
    ),
    ("mindeg3d", "lu"): (
        "780210b8825d5b724be29eb4f9360ab8a35c3d334f1b25f8a03822fa94edb3cc",
        "780210b8825d5b724be29eb4f9360ab8a35c3d334f1b25f8a03822fa94edb3cc",
        "780210b8825d5b724be29eb4f9360ab8a35c3d334f1b25f8a03822fa94edb3cc",
    ),
    ("mindeg3d", "ic0"): (
        "702dbf46a819bfc4f8e6ceccb3daada4cdbe667ac3b2061a819e7c000c77289f",
        "702dbf46a819bfc4f8e6ceccb3daada4cdbe667ac3b2061a819e7c000c77289f",
        "702dbf46a819bfc4f8e6ceccb3daada4cdbe667ac3b2061a819e7c000c77289f",
    ),
    ("mindeg3d", "triangular-solve/sparse-rhs"): (
        "3bb7015975bcfc1a841daf7dbe8de22af2f9be6d5e693de7f8c7a1bb5a9858df",
        "d8f502e8f6447ce9bed483c1c0d112dd15c4240c557c5c317cfa24928be37291",
        "c46f879450ba7b9aef248d5ce50e2afabfea2e6b046d31e6fe12e95c0f7b6c64",
    ),
}


def _compile_case(sym, pattern, case, options):
    """Compile one ``TABLE_CASES`` entry on one of ``TABLE_PATTERNS``."""
    method, _, sparse = case.partition("/")
    operand = _operand(sym, method, TABLE_PATTERNS[pattern])
    kernel_args = {"rhs_pattern": np.nonzero(sparse_rhs(operand.n, seed=6))[0]} if sparse else {}
    return sym.compile(method, operand, options=options, **kernel_args)


def _block_digest(artifact):
    digest = hashlib.sha256()
    for name, table in artifact.constants.items():
        assert table.dtype == np.int64 and table.flags.c_contiguous, name
        digest.update(name.encode() + b"\0" + table.tobytes() + b"\0")
    return digest.hexdigest()


def _table_digest(pattern, case, bundle):
    python = SympilerOptions(backend="python")
    return _block_digest(_compile_case(Sympiler(python, cache=ArtifactCache()), pattern, case, python.with_updates(**bundle)))


@pytest.mark.parametrize("bundle", range(len(_OPTION_BUNDLES)))
@pytest.mark.parametrize("case", TABLE_CASES)
@pytest.mark.parametrize("pattern", sorted(TABLE_PATTERNS))
def test_table_block_is_byte_identical_to_the_parent_commit(pattern, case, bundle):
    assert _table_digest(pattern, case, _OPTION_BUNDLES[bundle]) == _PINNED_TABLE_BLOCKS[pattern, case][bundle]


def test_every_c_method_spec_is_pinned():
    modes = ("none", "wavefront")
    expected = {(pattern, method, mode) for pattern in PATTERNS for method in METHODS for mode in modes}
    assert set(_PINNED_C_SOURCES) == expected


@needs_cc
@pytest.mark.parametrize("pattern,method,parallel", sorted(_PINNED_C_SOURCES))
def test_generated_c_is_byte_identical_to_the_parent_commit(pattern, method, parallel):
    sym = Sympiler(cache=ArtifactCache())
    operand = _operand(sym, method, PATTERNS[pattern])
    digest = hashlib.sha256()
    for bundle in _OPTION_BUNDLES:
        artifact = sym.compile(method, operand, options=SympilerOptions(backend="c", parallel=parallel, **bundle))
        assert artifact.module.method == method
        digest.update(artifact.source.encode() + b"\0")
    assert digest.hexdigest() == _PINNED_C_SOURCES[pattern, method, parallel]


# --------------------------------------------------------------------------- #
# The compile record did not move
# --------------------------------------------------------------------------- #
#: The option bundles above, then VS-Block alone and VI-Prune alone.
_RECORD_BUNDLES = (
    *(SympilerOptions(**bundle) for bundle in _OPTION_BUNDLES),
    SympilerOptions(enable_vi_prune=False),
    SympilerOptions(enable_vs_block=False),
)


def _loop(artifact):
    """The domain loop the compile planned, ``None`` for the untransformed solve."""
    return artifact.loop


def _record(artifact):
    """What a compile decided, as canonical JSON: the passes, their decisions and the loop they planned."""
    loop = _loop(artifact)
    # The third field was loop distribution, which no loop has any more; it
    # stays so that the records of every other loop hash as they did.
    shape = None if loop is None else [loop.role, loop.factor_kind, False]
    record = {"applied": artifact.applied_transformations, "decisions": artifact.decisions, "loop": shape}
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


#: sha256 over the records of every bundle of ``_RECORD_BUNDLES`` under ``parallel="none"``, then
#: under ``parallel="wavefront"``, per (pattern, case, backend); re-based where VS-Block takes a
#: Cholesky / LDLᵀ when loop distribution stopped being planned, re-based when the
#: no-low-level bundle left ``_OPTION_BUNDLES``, re-based for the C triangular solves when
#: ``parallel="wavefront"`` began to record the serial fallback (``"no-schedule"``) for them,
#: and re-based for the C factorizations when it began to record the same for every kernel
#: (no level-schedule sizes, no ``"wavefront"`` mode, no other fallback reason), and re-based
#: for LU and IC(0) when their inspections stopped building the supernodes VS-Block never used
#: on them: each record is the parent's with its ``"vs-block"`` decision removed.
_PINNED_RECORDS = {
    ("fem", "triangular-solve", "python"): "af412b2adadca56cc3cee7e6948a42636cc622639b06c3169170757a69cc0b09",
    ("fem", "triangular-solve", "c"): "854738d45a17742c8625ee1a3c600bc2e2bd1ee2593d707b0b6d68b36e4de2df",
    ("fem", "cholesky", "python"): "9dd4b1576571538a1b15860ba51acd874cc22a221878a2ae7c1a077a36a7b30c",
    ("fem", "cholesky", "c"): "f5e8675ba12824562e7b6b04b8569d076a56e9c1611b20837afc4dd5c8d4dc0c",
    ("fem", "ldlt", "python"): "5f8989a8e9499e1aa3ca0c83f89c460724727bf23e4f7b85c0a4031b8be7d29a",
    ("fem", "ldlt", "c"): "58b47debbad7b69faa2fddf2147c8acfe2079d5d36ed9d55c2f089c21f19d9f8",
    ("fem", "lu", "python"): "6efba9111dc95e7a4f82affba67fe6b440a820ac57a3a2f4476fe9d0377d9ca5",
    ("fem", "lu", "c"): "26ef4f1e6131ec846994d1b587588c0e851e5295b95718473d142dcc7471e8f2",
    ("fem", "ic0", "python"): "332d56a61ed32827cfe7c8e754c44a93779da72cc8eee653ba76fd3b9ad8e8f7",
    ("fem", "ic0", "c"): "4a5d771408f30523e4f120ce90cdfe38ae23b4608ab73f2d3afa169afb2cfc30",
    ("fem", "triangular-solve/sparse-rhs", "python"): "20c71e2810c1aed47aec2520e4ec999d8c9289f1275716c397602888fb9fa1b3",
    ("fem", "triangular-solve/sparse-rhs", "c"): "9c498596dc7dcb183a1856be55d587bc073115a7b75135363c760a33e8da69e5",
    ("mindeg", "triangular-solve", "python"): "1b7c0b2d0577f3119809fc477d99f00d0edd42226bc14513fc1279cfc165a75f",
    ("mindeg", "triangular-solve", "c"): "724a5f6788e054edffdf4fb6155f410c39d6bdfe7771fdd7d2d7d887468438e3",
    ("mindeg", "cholesky", "python"): "085f45a695d71b5523acaf6bc4e393aa4006fba35d33874e0070810ff1946da5",
    ("mindeg", "cholesky", "c"): "6e654e3e692af0c69e5dd592e9e43cef31d93c921e4ce42945c9f42e3ffb8e37",
    ("mindeg", "ldlt", "python"): "0834967160b6cc9c8f796350df8b05fcc6d08fef0595ffc1150255b9e96d5084",
    ("mindeg", "ldlt", "c"): "b90aab3f6d89c9fd772321f7e2d646f79f53eef92663821ad79b5d2ef7e41920",
    ("mindeg", "lu", "python"): "79ede0eaa9265e6f15e0f8c096e4f7d0ccd42b56b23dc1be42cf7b5a68f37043",
    ("mindeg", "lu", "c"): "56866437916eefc388b57d393d85c6bff920a17aeeaf9a02b9a662c55f4cf689",
    ("mindeg", "ic0", "python"): "dc29e5ee485d8760ded49c976f8f4a32551c5d1379c59d9e4bb754b4fc7a4ac4",
    ("mindeg", "ic0", "c"): "0d13fe270ea17f8210ed2b69c76a672aeb5cf95169ece9d14de7c47ef048eb38",
    ("mindeg", "triangular-solve/sparse-rhs", "python"): "bb648c0060935937dd53131133a859bcf1c0489adcfcebe08f457393a90227ed",
    ("mindeg", "triangular-solve/sparse-rhs", "c"): "a3eca2b77f82a972e8ee61afd69408f39c290da194b09883ffca5366a32de0a9",
    ("mindeg3d", "triangular-solve", "python"): "e00ddc3f9a75f2bc058ceb4b6e3ea9014961c9d39b5f04424c8c864b342193c7",
    ("mindeg3d", "triangular-solve", "c"): "c7dd180bb1507f81953f8d143c6a6b88f90a1a5fe7bde9229c537f58744ca8d1",
    ("mindeg3d", "cholesky", "python"): "9f5a8a087e43a27fe43bb94bd15051439f28ddf0710dfd455c75079114d2375a",
    ("mindeg3d", "cholesky", "c"): "b7a5590744c80bfd4025e54c3ce81bcf4c1cf23a9d1e008c0bf28acff876d18c",
    ("mindeg3d", "ldlt", "python"): "d6065f0b002595a47ea2f953c6637b5af8e839f3723a63bf33d6ffbc594cfe7a",
    ("mindeg3d", "ldlt", "c"): "6db45c1a830d0e449d39054dbbc8c975dbfad6fbc141c77c184a0ff9df437de9",
    ("mindeg3d", "lu", "python"): "4c163eb118c82f76de1e7f77d8d9e8f150c6e0d9d05a1fe61eb960fd3eab01fd",
    ("mindeg3d", "lu", "c"): "41ae82e2f09c055978a6ccb65beca559b9e79d79b9180c6c8069775e8ae75a7c",
    ("mindeg3d", "ic0", "python"): "517b6ef58faca107b5d13600a66b0ae7bb88c6bf168f645efb6827252660fe9e",
    ("mindeg3d", "ic0", "c"): "9bc43459109e9c4567ae8d0c675b68b5057c8cb66a9837fc5ed1859e175fa086",
    ("mindeg3d", "triangular-solve/sparse-rhs", "python"): "379194347a6a81ad8e526f2921ce96076da6fe48f6cad4fef0869154d720f8ca",
    ("mindeg3d", "triangular-solve/sparse-rhs", "c"): "9555f0c20d7a6c4bfa170bd9346b3ece5f0c2f8d761ab1677926a3abcef062af",
}


@pytest.mark.parametrize("backend", ["python", pytest.param("c", marks=needs_cc)])
@pytest.mark.parametrize("case", TABLE_CASES)
@pytest.mark.parametrize("pattern", sorted(TABLE_PATTERNS))
def test_compile_record_is_identical_to_the_parent_commit(pattern, case, backend):
    sym = Sympiler(SympilerOptions(backend=backend), cache=ArtifactCache())
    digest = hashlib.sha256()
    for parallel in ("none", "wavefront"):
        for bundle in _RECORD_BUNDLES:
            options = bundle.with_updates(backend=backend, parallel=parallel)
            digest.update(_record(_compile_case(sym, pattern, case, options)).encode() + b"\0")
    assert digest.hexdigest() == _PINNED_RECORDS[pattern, case, backend]


# --------------------------------------------------------------------------- #
# Every option changes what gets compiled
# --------------------------------------------------------------------------- #
#: One value of each other field away from ``SympilerOptions(backend="c")``.
_ALTERNATIVES = {"backend": "python", "enable_vi_prune": False, "enable_vs_block": False, "parallel": "wavefront"}


def _compiled(artifact):
    return artifact.source, _block_digest(artifact), _record(artifact)


@needs_cc
@pytest.mark.parametrize(
    "name", [field.name for field in dataclasses.fields(SympilerOptions) if field.name not in TOOLCHAIN_OPTIONS]
)
def test_every_option_changes_a_source_a_table_block_or_a_record(name):
    """A field no case can tell apart from its default is a dead knob.

    The toolchain pair says where and how the source is compiled, not what it is.
    """
    base = SympilerOptions(backend="c")
    other = base.with_updates(**{name: _ALTERNATIVES[name]})
    changed = [
        (pattern, case)
        for pattern in sorted(TABLE_PATTERNS)
        for case in TABLE_CASES
        if _compiled(_compile_case(Sympiler(cache=ArtifactCache()), pattern, case, base))
        != _compiled(_compile_case(Sympiler(cache=ArtifactCache()), pattern, case, other))
    ]
    assert changed, f"{name}={_ALTERNATIVES[name]!r} compiles what the default does on every case"


# --------------------------------------------------------------------------- #
# One failure contract
# --------------------------------------------------------------------------- #
def _outcome(artifact, A):
    """``("ok", values)`` or ``(exception type, message)`` of one numeric call."""
    try:
        raw = artifact.factorize_arrays(A.indptr, A.indices, A.data)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc).__name__, str(exc)
    return "ok", np.concatenate(raw if isinstance(raw, tuple) else (raw,))


@needs_cc
@pytest.mark.parametrize("vs_block", [True, False], ids=["default", "no-vs-block"])
@pytest.mark.parametrize("kernel", FACTORIZATIONS)
def test_both_backends_fail_alike(kernel, vs_block):
    """Same input, same exception type, same text, same *global* column."""
    A = laplacian_2d(6)
    diagonal = [int(A.indptr[j] + np.searchsorted(A.col_rows(j), j)) for j in range(A.n)]
    # A negative and a zero pivot candidate in every column, and a NaN in the
    # first column, in the middle and in the last entry.
    cases = [(pos, value) for value in (-5.0, 0.0) for pos in diagonal]
    cases += [(k, np.nan) for k in (0, 40, A.nnz - 1)]
    sym = Sympiler(cache=ArtifactCache())
    python, c = (
        sym.compile(kernel, A, options=SympilerOptions(backend=backend, enable_vs_block=vs_block))
        for backend in ("python", "c")
    )
    if kernel in ("cholesky", "ldlt"):
        assert ("vs-block" in python.applied_transformations) == vs_block
    failed_at = set()
    for pos, value in cases:
        bad = A.copy()
        bad.data[pos] = value
        expected, got = _outcome(c, bad), _outcome(python, bad)
        assert got[0] == expected[0], (pos, value, got, expected)
        if expected[0] == "ok":
            np.testing.assert_array_equal(got[1], expected[1])  # NaN for NaN
            continue
        assert expected[0] == "ValueError" and got[1] == expected[1], (pos, value)
        assert got[1] == _KERNELS[kernel].abi.failure.format(column=int(got[1].rsplit(" ", 1)[1]))
        failed_at.add(int(got[1].rsplit(" ", 1)[1]))
    # Not vacuous: every kernel failed, and the positive-pivot ones in columns
    # all over the matrix (inside supernodes included), not just at column 0.
    assert 0 in failed_at
    if kernel in ("cholesky", "ic0"):
        assert len(failed_at) >= 30


def _exact_factor_matrix():
    """``(L, c)``: a unit lower ``L`` with entries ±1 on the factor pattern of a minimum-degree 3-D
    grid, and a column ``c`` in the middle of its widest supernode, which descendants update.

    ``A = L diag(D) Lᵀ`` with ``D = 1`` before ``c`` has small integers for every intermediate
    of its factorization, so every operation order computes the pivots up to ``c`` exactly.
    """
    grid = laplacian_3d(4)
    inspection = inspect_cholesky(minimum_degree_ordering(grid).symmetric_permute(grid))
    Lp, Li, super_ptr = inspection.l_indptr, inspection.l_indices, inspection.supernodes.super_ptr
    L = np.eye(inspection.n)
    rng = np.random.default_rng(1)
    for j in range(inspection.n):
        L[Li[Lp[j] + 1 : Lp[j + 1]], j] = rng.choice([-1.0, 1.0], size=Lp[j + 1] - Lp[j] - 1)
    s = int(np.argmax(np.diff(super_ptr)))
    return L, int(super_ptr[s] + super_ptr[s + 1]) // 2


@needs_cc
@pytest.mark.parametrize("kernel", ["cholesky", "ldlt"])
def test_a_breakdown_inside_a_wide_supernode_names_the_simplicial_column(kernel):
    """A zero, a negative and a NaN pivot in the middle of a wide supernode: both backends of the
    supernode loop fail like the simplicial loop, at the same global column."""
    L, c = _exact_factor_matrix()
    pattern = CSCMatrix.from_dense(np.abs(L) @ np.abs(L).T)  # one pattern for every case: no cancellation
    cases = {}
    for name, pivot in (("zero", 0.0), ("negative", -1.0), ("nan", 1.0)):
        D = np.ones(L.shape[0])
        D[c] = pivot
        dense = L @ np.diag(D) @ L.T
        if name == "nan":
            dense[c, c] = np.nan
        cases[name] = pattern.with_values(dense[pattern.indices, pattern.col_indices()])
    sym = Sympiler(cache=ArtifactCache())
    blocked, reference, simplicial = (
        sym.compile(kernel, cases["zero"], options=SympilerOptions(backend=backend, enable_vs_block=vs_block))
        for backend, vs_block in (("c", True), ("python", True), ("c", False))
    )
    assert blocked.loop.role == reference.loop.role == "supernodal-cholesky"
    assert simplicial.loop.role == "simplicial-cholesky"
    # Not vacuous: c is neither the first nor the last column of its supernode, which descendants update.
    T = blocked.constants
    s = int(np.searchsorted(T["_C_sup_start"], c, side="right")) - 1
    assert T["_C_sup_start"][s] < c < T["_C_sup_end"][s] - 1 and T["_C_desc_ptr"][s + 1] > T["_C_desc_ptr"][s]
    for name, A in cases.items():
        outcomes = [_outcome(artifact, A) for artifact in (blocked, reference, simplicial)]
        if kernel == "cholesky" or name == "zero":
            failure = ("ValueError", _KERNELS[kernel].abi.failure.format(column=c))
            assert outcomes == [failure] * 3, name
            continue
        # LDLᵀ takes a negative pivot, and its pivot test lets a NaN through.
        assert [kind for kind, _ in outcomes] == ["ok"] * 3, name
        np.testing.assert_array_equal(outcomes[0][1], outcomes[1][1])  # NaN for NaN
        if name == "negative":  # exact arithmetic: every loop computes the same factor
            np.testing.assert_array_equal(outcomes[0][1], outcomes[2][1])
