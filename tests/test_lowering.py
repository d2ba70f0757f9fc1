"""Tests for lowering numerical methods into the initial annotated AST."""

from repro.compiler.ast import Comment, ForRange, KernelFunction, domain_loop, pretty, walk
from repro.compiler.lowering import lower_cholesky, lower_triangular_solve


def _loops(kernel):
    return [n for n in walk(kernel.body) if isinstance(n, ForRange)]


class TestTriangularSolveLowering:
    def test_kernel_metadata(self):
        kernel = lower_triangular_solve()
        assert isinstance(kernel, KernelFunction)
        assert kernel.method == "triangular-solve"
        assert kernel.params == ["Lp", "Li", "Lx", "b"]
        assert kernel.meta["figure"] == "1b"

    def test_column_loop_is_annotated_for_both_transformations(self):
        kernel = lower_triangular_solve()
        column_loops = [
            l for l in _loops(kernel) if l.annotations.get("role") == "column-loop"
        ]
        assert len(column_loops) == 1
        loop = column_loops[0]
        assert loop.annotations["prunable"] is True
        assert loop.annotations["blockable"] is True

    def test_inner_update_is_vectorizable(self):
        kernel = lower_triangular_solve()
        inner = [l for l in _loops(kernel) if l.annotations.get("role") == "inner-update"]
        assert len(inner) == 1
        assert inner[0].annotations["vectorizable"] is True

    def test_no_constants_before_transformation(self):
        # No inspection set before a transformation places the domain loop that carries them.
        assert domain_loop(lower_triangular_solve()) is None

    def test_pretty_matches_figure_1b_structure(self):
        text = pretty(lower_triangular_solve())
        assert "x[j] /= Lx[Lp[j]]" in text
        assert "x[Li[p]] -= (Lx[p] * x[j])" in text


class TestCholeskyLowering:
    def test_kernel_metadata(self):
        kernel = lower_cholesky()
        assert kernel.method == "cholesky"
        assert kernel.params == ["Ap", "Ai", "Ax"]
        assert kernel.meta["algorithm"] == "left-looking"

    def test_update_loop_is_prunable(self):
        kernel = lower_cholesky()
        update = [l for l in _loops(kernel) if l.annotations.get("role") == "update-loop"]
        assert len(update) == 1
        assert update[0].annotations["prunable"] is True

    def test_column_loop_is_blockable(self):
        kernel = lower_cholesky()
        column = [l for l in _loops(kernel) if l.annotations.get("role") == "column-loop"]
        assert len(column) == 1
        assert column[0].annotations["blockable"] is True

    def test_comments_describe_phases(self):
        kernel = lower_cholesky()
        comments = [n.text for n in walk(kernel.body) if isinstance(n, Comment)]
        assert any("update" in c or "gather" in c for c in comments)
        assert any("column factorization" in c for c in comments)

    def test_fresh_instances_are_independent(self):
        a = lower_triangular_solve()
        b = lower_triangular_solve()
        a.meta["vi_prune"] = True
        a.body.append(Comment("only in a"))
        assert "vi_prune" not in b.meta and len(b.body) == len(a.body) - 1
