import inspect
import pickle

from rotorkin import errors


def test_every_error_survives_pickling():
    # a verify worker's exception reaches the parent process through pickle
    classes = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, Exception) and cls.__module__ == errors.__name__]
    assert {errors.KinematicsError, errors.ExprSyntaxError,
            errors.NonFiniteData} <= set(classes)
    for cls in classes:
        exc = (cls("bad token", 3) if cls is errors.ExprSyntaxError
               else cls("bad token"))
        exc.t = 0.25
        copy = pickle.loads(pickle.dumps(exc))
        assert type(copy) is cls
        assert str(copy) == str(exc)
        assert getattr(copy, "offset", None) == getattr(exc, "offset", None)
        assert copy.t == 0.25
    assert str(errors.ExprSyntaxError("bad token", 3)) == (
        "bad token (at offset 3)")
