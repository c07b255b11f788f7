import ast
import builtins
from pathlib import Path

import pytest

from vcdfuel import cli, errors
from vcdfuel.errors import InsufficientData, InvalidArgument, VcdFuelError

SOURCES = sorted(Path(errors.__file__).parent.glob("*.py"))
ERROR_CLASSES = {name: obj for name, obj in vars(errors).items()
                 if isinstance(obj, type) and issubclass(obj, Exception)}


def raised_names(path: Path):
    """(line, name) of every class a ``raise`` in ``path`` names; a bare
    ``raise`` and a re-raised variable (lower-case name) name none."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
        if name and name[0].isupper():
            yield node.lineno, name


def is_builtin_exception(name: str) -> bool:
    obj = getattr(builtins, name, None)
    return isinstance(obj, type) and issubclass(obj, BaseException)


class TestHierarchy:
    def test_one_class_per_way_a_caller_reacts(self):
        assert sorted(ERROR_CLASSES) == sorted([
            "VcdFuelError", "InvalidArgument", "ParseError", "InsufficientData",
            "InsufficientGearData", "BoundNotReached", "MissingPrerequisite"])
        assert all(issubclass(cls, VcdFuelError) for cls in ERROR_CLASSES.values())

    def test_invalid_argument_is_a_value_error(self):
        assert issubclass(InvalidArgument, ValueError)
        with pytest.raises(ValueError, match="^bad$"):
            raise InvalidArgument("bad")

    def test_specific_insufficient_data_keeps_its_attributes(self):
        gear = errors.InsufficientGearData(3, 10, 50)
        assert isinstance(gear, InsufficientData)
        assert (gear.gear, gear.count, gear.minimum) == (3, 10, 50)
        assert str(gear) == "gear 3: 10 samples, need at least 50"
        bound = errors.BoundNotReached("unmet", best="selection")
        assert isinstance(bound, InsufficientData)
        assert bound.best == "selection" and str(bound) == "unmet"


class TestCliExitCodes:
    @pytest.mark.parametrize("cls", ERROR_CLASSES.values(), ids=list(ERROR_CLASSES))
    def test_one_error_line_and_the_exit_code_of_its_class(self, tmp_path, monkeypatch, capsys,
                                                           cls):
        exc = cls(2, 10, 50) if cls is errors.InsufficientGearData else cls("stage failed")

        def failing(run):
            raise exc

        monkeypatch.setattr(cli, "cmd_simulate", failing)
        code = cli.main(["simulate", "--out", str(tmp_path)])
        assert code == (2 if cls is errors.MissingPrerequisite else 1)
        err = capsys.readouterr().err
        assert err == f"error: {exc}\n" and "Traceback" not in err


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_raise_names_only_known_classes(path):
    """Every raise in the package names a class of vcdfuel.errors or a
    builtin exception, so no error class is made for one raise site."""
    unknown = [f"{path.name}:{line}: {name}" for line, name in raised_names(path)
               if name not in ERROR_CLASSES and not is_builtin_exception(name)]
    assert not unknown
