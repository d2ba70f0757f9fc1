"""One table contract, two readers: the C emitters and the NumPy reference kernels.

``repro.compiler.codegen.tables`` names every inspection set and size once.
These tests hold the three things that follow from it: both backends hand
their kernel the same block; the generated C is pinned byte for byte, so a
change to it is deliberate; and the two kernels fail alike.
"""

import hashlib

import numpy as np
import pytest

from repro.compiler.cache import ArtifactCache
from repro.compiler.codegen.c_backend import _C_METHOD_SPECS, c_compiler_available
from repro.compiler.options import SympilerOptions
from repro.compiler.sympiler import Sympiler
from repro.sparse.generators import fem_stencil_2d, laplacian_2d, laplacian_3d, sparse_rhs
from repro.sparse.ordering import minimum_degree_ordering

needs_cc = pytest.mark.skipif(not c_compiler_available("cc"), reason="no C compiler available")

METHODS = list(_C_METHOD_SPECS)
FACTORIZATIONS = [name for name in METHODS if name != "triangular-solve"]


#: A pattern VS-Block takes (deep etree: wavefront falls back) and one it
#: leaves alone (minimum-degree order: bushy etree, wavefront active).
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
        for options in ({}, {"backend": "c"}, {"backend": "c", "parallel": "wavefront"})
    )
    assert list(python) == list(serial) and list(serial)[0] == "_C_dims"
    for name, table in serial.items():
        assert table.dtype == python[name].dtype == np.int64
        assert table.flags.c_contiguous and python[name].flags.c_contiguous
        np.testing.assert_array_equal(python[name], table, err_msg=name)
    # A wavefront module appends its own tables (level schedule, pull
    # structure) after the serial block: the serial block is a prefix of its
    # block, and the serial sizes a prefix of its sizes.
    assert list(wavefront)[: len(serial)] == list(serial)
    assert all(name.startswith("_C_wf_") for name in list(wavefront)[len(serial) :])
    for name in list(serial)[1:]:
        np.testing.assert_array_equal(wavefront[name], serial[name], err_msg=name)
    n_sizes = serial["_C_dims"].size
    np.testing.assert_array_equal(wavefront["_C_dims"][:n_sizes], serial["_C_dims"])


@needs_cc
def test_the_wavefront_extras_are_exercised():
    """Not vacuous: on the bushy pattern every wavefront module has tables of its own."""
    sym = Sympiler(cache=ArtifactCache())
    options = SympilerOptions(backend="c", parallel="wavefront")
    for method in METHODS:
        artifact = sym.compile(method, _operand(sym, method, PATTERNS["mindeg"]), options=options)
        assert artifact.parallel_mode == "wavefront"
        assert any(name.startswith("_C_wf_") for name in artifact.constants), method


# --------------------------------------------------------------------------- #
# (d) The generated C did not move
# --------------------------------------------------------------------------- #
#: sha256 over the sources of four option bundles (all passes / no VS-Block /
#: no low-level passes / nothing), per pattern, C method spec and parallel
#: mode, re-based when each kernel's step body became one C function called by
#: the serial loop and the wavefront job (and the unrolled switch went).
_OPTION_BUNDLES = (
    {},
    {"enable_vs_block": False},
    {"enable_low_level": False},
    {"enable_vi_prune": False, "enable_vs_block": False, "enable_low_level": False},
)
_PINNED_C_SOURCES = {
    ("fem", "triangular-solve", "none"): "470c2548b8ad5f92401e7c54fa77379bbf64a993096a01f411f61eb4c61915a3",
    ("fem", "triangular-solve", "wavefront"): "02087801a9060c90d1211df40f8826ac58946e9c6fec85ff4918688ad850e900",
    ("fem", "cholesky", "none"): "e2114f3a9488b3360babf669626eb54acea7edd37203c5205b8ee4899d66cd0e",
    ("fem", "cholesky", "wavefront"): "edc772330d3c71f7d7fcad5d38cd0a7bd423aede6b43bdb2b482f31e9c09f847",
    ("fem", "ldlt", "none"): "890167105a836eac27567b06ade54d721eae412423a08fcdcffe8a8285c42877",
    ("fem", "ldlt", "wavefront"): "fca81c52e35224206181e48394d28f4b94d4cc7b925171b1f32b86a8450baa5b",
    ("fem", "lu", "none"): "9f6b4802d5cf10ec7c65e26d4083ea936974375180aa8894e84e4348a4e383fe",
    ("fem", "lu", "wavefront"): "0eab6990cc57fe4eb47c55061737972f231ac108e4f84f7c2deb2a20308dfa43",
    ("fem", "ic0", "none"): "9e98e67afad37ef5b57724e77219583238fb22b3d48e0c14797e5fc8bcd7e40a",
    ("fem", "ic0", "wavefront"): "2c54e41fc1bdef8c790bb0e46403ee0663c218720e0c531c7021f5e9a4b92410",
    ("fem", "ilu0", "none"): "98774e472d61abe0b307e94d32bc6eb40c36744a74ab829cf374b455cabdc44a",
    ("fem", "ilu0", "wavefront"): "9f064cf49a9c4419bcecf8449c3c0d717c16ea037477f2a56da149402bafd121",
    ("mindeg", "triangular-solve", "none"): "470c2548b8ad5f92401e7c54fa77379bbf64a993096a01f411f61eb4c61915a3",
    ("mindeg", "triangular-solve", "wavefront"): "e4409d83d9e05e67cf5223349ce72551b0ecff4896ce1cac606867eecc61a71f",
    ("mindeg", "cholesky", "none"): "f379800042a99e09153a1222bf0ab49696de3e1b4a76a09a674acf1b33986d14",
    ("mindeg", "cholesky", "wavefront"): "1dffaa2cc0ef7945422e1d88647e5b20f8afd02cb002ec5889c5cd682dc146c5",
    ("mindeg", "ldlt", "none"): "28c2d3f930420f676b1dad8df069459eabd0b8e32fa486c7ef98cdb073a01a2e",
    ("mindeg", "ldlt", "wavefront"): "bad4a508f0eb6436fe25380686aa2cef55613c0f65616d68a34d0b1b3ce00e12",
    ("mindeg", "lu", "none"): "9f6b4802d5cf10ec7c65e26d4083ea936974375180aa8894e84e4348a4e383fe",
    ("mindeg", "lu", "wavefront"): "bf3e85d8b84971039f4cd95bd062a60b44d1ad7836684198864e22af00ceaf4d",
    ("mindeg", "ic0", "none"): "9e98e67afad37ef5b57724e77219583238fb22b3d48e0c14797e5fc8bcd7e40a",
    ("mindeg", "ic0", "wavefront"): "70bd8dd10041bbd4efd8f53c7c8a59122d551521531a0b6b8c42120b4777be71",
    ("mindeg", "ilu0", "none"): "98774e472d61abe0b307e94d32bc6eb40c36744a74ab829cf374b455cabdc44a",
    ("mindeg", "ilu0", "wavefront"): "0c58db5d0252c423e72511a4b9fdb1354af785896f446e561ce8bb2afdb03779",
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
#: became array expressions (7a05fcc).  Needs no C compiler: the contract is backend-independent.
_PINNED_TABLE_BLOCKS = {
    ("fem", "triangular-solve"): (
        "32a2930371574950474fe31de4ff0ae6e5435e3a5d44591f85ea04dbc5aecb38",
        "c69f87eb9d7f99fe8d804334c079c55dac220f60b2cc876b0c4cbac923243f75",
        "32a2930371574950474fe31de4ff0ae6e5435e3a5d44591f85ea04dbc5aecb38",
        "d30c183250cc3e60b58f114f3f73111e20577e01d6c91169391e5aca2239c9df",
    ),
    ("fem", "cholesky"): (
        "353ef042f3e922372686013eabc25f6b66b400128fdaace868fbae74c39b7b45",
        "ef1da2ebbcfd3a5a42bf139da9df9921aaebe1c522b79a14918d135fa9e2cd54",
        "353ef042f3e922372686013eabc25f6b66b400128fdaace868fbae74c39b7b45",
        "ef1da2ebbcfd3a5a42bf139da9df9921aaebe1c522b79a14918d135fa9e2cd54",
    ),
    ("fem", "ldlt"): (
        "ddaba93ed790850164aa320449188bf267a54a9bd673f9573ea4dbbe4bf882b2",
        "491deb123dbb503e9e2d8df05f5ae285b75c76d321fe9eeff40a922cedd15e1b",
        "ddaba93ed790850164aa320449188bf267a54a9bd673f9573ea4dbbe4bf882b2",
        "491deb123dbb503e9e2d8df05f5ae285b75c76d321fe9eeff40a922cedd15e1b",
    ),
    ("fem", "lu"): (
        "9648d8cdcc7de5e76c9d5aed33de19eeeb5ffa5d8f615644085e68f63c54e02f",
        "9648d8cdcc7de5e76c9d5aed33de19eeeb5ffa5d8f615644085e68f63c54e02f",
        "9648d8cdcc7de5e76c9d5aed33de19eeeb5ffa5d8f615644085e68f63c54e02f",
        "9648d8cdcc7de5e76c9d5aed33de19eeeb5ffa5d8f615644085e68f63c54e02f",
    ),
    ("fem", "ic0"): (
        "603683607f88fdbbbd7f5e4c8ea64c5db2dfa67348bf2213cb9782e614e4780b",
        "603683607f88fdbbbd7f5e4c8ea64c5db2dfa67348bf2213cb9782e614e4780b",
        "603683607f88fdbbbd7f5e4c8ea64c5db2dfa67348bf2213cb9782e614e4780b",
        "603683607f88fdbbbd7f5e4c8ea64c5db2dfa67348bf2213cb9782e614e4780b",
    ),
    ("fem", "ilu0"): (
        "ead3f61308325e56b95e7191821d9f7b699afe75bf7ed3e8909a6488fbb9a6f1",
        "ead3f61308325e56b95e7191821d9f7b699afe75bf7ed3e8909a6488fbb9a6f1",
        "ead3f61308325e56b95e7191821d9f7b699afe75bf7ed3e8909a6488fbb9a6f1",
        "ead3f61308325e56b95e7191821d9f7b699afe75bf7ed3e8909a6488fbb9a6f1",
    ),
    ("fem", "triangular-solve/sparse-rhs"): (
        "dbf7de32ac46cff4038e6a4a05e0e8a8e285ed10d2c59209bccf8d0096f57d78",
        "a33ea9de056d65e105a489c58a2daf1c43c6c83d35d29a4c9076f8dd817c0c63",
        "dbf7de32ac46cff4038e6a4a05e0e8a8e285ed10d2c59209bccf8d0096f57d78",
        "d30c183250cc3e60b58f114f3f73111e20577e01d6c91169391e5aca2239c9df",
    ),
    ("mindeg", "triangular-solve"): (
        "f1e145679fba7d7b214de24fdac922271ba9fa272702805025ae239db3f739c1",
        "f1e145679fba7d7b214de24fdac922271ba9fa272702805025ae239db3f739c1",
        "f1e145679fba7d7b214de24fdac922271ba9fa272702805025ae239db3f739c1",
        "eb24e653c9423bfddabe92fe68ba936d472ea9387e1e03567f5d9f465b985578",
    ),
    ("mindeg", "cholesky"): (
        "2fa600e1591a6c05d77e7f573ec9e2417bc9e99a19fba4fe5e2dc9ac2080537a",
        "2fa600e1591a6c05d77e7f573ec9e2417bc9e99a19fba4fe5e2dc9ac2080537a",
        "2fa600e1591a6c05d77e7f573ec9e2417bc9e99a19fba4fe5e2dc9ac2080537a",
        "2fa600e1591a6c05d77e7f573ec9e2417bc9e99a19fba4fe5e2dc9ac2080537a",
    ),
    ("mindeg", "ldlt"): (
        "497563b42066db877b7eb6132602e44f51fa439b8530c7877673d0018ec3eb3e",
        "497563b42066db877b7eb6132602e44f51fa439b8530c7877673d0018ec3eb3e",
        "497563b42066db877b7eb6132602e44f51fa439b8530c7877673d0018ec3eb3e",
        "497563b42066db877b7eb6132602e44f51fa439b8530c7877673d0018ec3eb3e",
    ),
    ("mindeg", "lu"): (
        "54f6a530e5942b4cb9a5e9d7be0f06387fd2758ca63b8fc1498c67473d30441a",
        "54f6a530e5942b4cb9a5e9d7be0f06387fd2758ca63b8fc1498c67473d30441a",
        "54f6a530e5942b4cb9a5e9d7be0f06387fd2758ca63b8fc1498c67473d30441a",
        "54f6a530e5942b4cb9a5e9d7be0f06387fd2758ca63b8fc1498c67473d30441a",
    ),
    ("mindeg", "ic0"): (
        "55820ced32a441a36fe622ec1b95c5e64f39ea49eefe8c3487ce238c1c7b0fdd",
        "55820ced32a441a36fe622ec1b95c5e64f39ea49eefe8c3487ce238c1c7b0fdd",
        "55820ced32a441a36fe622ec1b95c5e64f39ea49eefe8c3487ce238c1c7b0fdd",
        "55820ced32a441a36fe622ec1b95c5e64f39ea49eefe8c3487ce238c1c7b0fdd",
    ),
    ("mindeg", "ilu0"): (
        "59309656af29fd743c74c9db5e03683407753f6834b9c44069251e7fcb03af13",
        "59309656af29fd743c74c9db5e03683407753f6834b9c44069251e7fcb03af13",
        "59309656af29fd743c74c9db5e03683407753f6834b9c44069251e7fcb03af13",
        "59309656af29fd743c74c9db5e03683407753f6834b9c44069251e7fcb03af13",
    ),
    ("mindeg", "triangular-solve/sparse-rhs"): (
        "44f2a8ae6dc241c77d6ce477977e1661deb3d4b6a2b62c794e14044cba09616b",
        "44f2a8ae6dc241c77d6ce477977e1661deb3d4b6a2b62c794e14044cba09616b",
        "44f2a8ae6dc241c77d6ce477977e1661deb3d4b6a2b62c794e14044cba09616b",
        "eb24e653c9423bfddabe92fe68ba936d472ea9387e1e03567f5d9f465b985578",
    ),
    ("mindeg3d", "triangular-solve"): (
        "5e0cd27c76a2f5a72bfd3627f63cd697517c0a4f62b3b36b7c19593ebfd5777f",
        "979b2b213767a41ced47ac36ad903574b4064ea03480e314a2d4533e6cc1d45c",
        "5e0cd27c76a2f5a72bfd3627f63cd697517c0a4f62b3b36b7c19593ebfd5777f",
        "c46f879450ba7b9aef248d5ce50e2afabfea2e6b046d31e6fe12e95c0f7b6c64",
    ),
    ("mindeg3d", "cholesky"): (
        "3efd3257699344db224726cabd032468a08d566b70d6f42d4b2064984f14f468",
        "d98146efee572a89337b0f1959b74da96e4bb20613f5db2106c9b44e98d5afab",
        "3efd3257699344db224726cabd032468a08d566b70d6f42d4b2064984f14f468",
        "d98146efee572a89337b0f1959b74da96e4bb20613f5db2106c9b44e98d5afab",
    ),
    ("mindeg3d", "ldlt"): (
        "538e55f521c03775f6012f4aafb9547ef7a81233476d96f3196a85d9b23066cb",
        "744ea5404948ca221ce8130024c18fd0facb62e9215fc1b2dccd763753ec3521",
        "538e55f521c03775f6012f4aafb9547ef7a81233476d96f3196a85d9b23066cb",
        "744ea5404948ca221ce8130024c18fd0facb62e9215fc1b2dccd763753ec3521",
    ),
    ("mindeg3d", "lu"): (
        "780210b8825d5b724be29eb4f9360ab8a35c3d334f1b25f8a03822fa94edb3cc",
        "780210b8825d5b724be29eb4f9360ab8a35c3d334f1b25f8a03822fa94edb3cc",
        "780210b8825d5b724be29eb4f9360ab8a35c3d334f1b25f8a03822fa94edb3cc",
        "780210b8825d5b724be29eb4f9360ab8a35c3d334f1b25f8a03822fa94edb3cc",
    ),
    ("mindeg3d", "ic0"): (
        "ac4d64a90b3401eeba0748b14fb233d45c34739edf141646d1a3b73de9893b02",
        "ac4d64a90b3401eeba0748b14fb233d45c34739edf141646d1a3b73de9893b02",
        "ac4d64a90b3401eeba0748b14fb233d45c34739edf141646d1a3b73de9893b02",
        "ac4d64a90b3401eeba0748b14fb233d45c34739edf141646d1a3b73de9893b02",
    ),
    ("mindeg3d", "ilu0"): (
        "06ff8f816cf8cc2eccf25af24a82dd0cb009d6053d2964a375938935b7580141",
        "06ff8f816cf8cc2eccf25af24a82dd0cb009d6053d2964a375938935b7580141",
        "06ff8f816cf8cc2eccf25af24a82dd0cb009d6053d2964a375938935b7580141",
        "06ff8f816cf8cc2eccf25af24a82dd0cb009d6053d2964a375938935b7580141",
    ),
    ("mindeg3d", "triangular-solve/sparse-rhs"): (
        "3bb7015975bcfc1a841daf7dbe8de22af2f9be6d5e693de7f8c7a1bb5a9858df",
        "d8f502e8f6447ce9bed483c1c0d112dd15c4240c557c5c317cfa24928be37291",
        "3bb7015975bcfc1a841daf7dbe8de22af2f9be6d5e693de7f8c7a1bb5a9858df",
        "c46f879450ba7b9aef248d5ce50e2afabfea2e6b046d31e6fe12e95c0f7b6c64",
    ),
}


def _table_digest(pattern, case, bundle):
    method, _, sparse = case.partition("/")
    sym = Sympiler(cache=ArtifactCache())
    operand = _operand(sym, method, TABLE_PATTERNS[pattern])
    kernel_args = {"rhs_pattern": np.nonzero(sparse_rhs(operand.n, seed=6))[0]} if sparse else {}
    artifact = sym.compile(method, operand, options=SympilerOptions(**bundle), **kernel_args)
    digest = hashlib.sha256()
    for name, table in artifact.constants.items():
        assert table.dtype == np.int64 and table.flags.c_contiguous, name
        digest.update(name.encode() + b"\0" + table.tobytes() + b"\0")
    return digest.hexdigest()


@pytest.mark.parametrize("bundle", range(len(_OPTION_BUNDLES)))
@pytest.mark.parametrize("case", TABLE_CASES)
@pytest.mark.parametrize("pattern", sorted(TABLE_PATTERNS))
def test_table_block_is_byte_identical_to_the_parent_commit(pattern, case, bundle):
    assert _table_digest(pattern, case, _OPTION_BUNDLES[bundle]) == _PINNED_TABLE_BLOCKS[pattern, case][bundle]


def test_every_c_method_spec_is_pinned():
    modes = ("none", "wavefront")
    expected = {(pattern, method, mode) for pattern in PATTERNS for method in _C_METHOD_SPECS for mode in modes}
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
        assert bool(python.kernel.meta.get("vs_block")) == vs_block
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
        assert got[1] == _C_METHOD_SPECS[kernel].failure.format(column=int(got[1].rsplit(" ", 1)[1]))
        failed_at.add(int(got[1].rsplit(" ", 1)[1]))
    # Not vacuous: every kernel failed, and the positive-pivot ones in columns
    # all over the matrix (inside supernodes included), not just at column 0.
    assert 0 in failed_at
    if kernel in ("cholesky", "ic0"):
        assert len(failed_at) >= 30
