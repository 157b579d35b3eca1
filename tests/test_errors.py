import pickle

import pytest

from hodgeloci import errors

CLASSES = [obj for obj in vars(errors).values()
           if isinstance(obj, type) and issubclass(obj, Exception)
           and obj.__module__ == errors.__name__]
# constructor arguments of the classes that take more than one message
ARGS = {errors.ParseError: ("bad token", 3), errors.TransversalityViolation: ((1, 2),)}


@pytest.mark.parametrize("cls", CLASSES, ids=[c.__name__ for c in CLASSES])
def test_exceptions_survive_pickling(cls):
    err = cls(*ARGS.get(cls, ("a message",)))
    copied = pickle.loads(pickle.dumps(err))
    assert type(copied) is cls
    assert str(copied) == str(err) and copied.args == err.args
    assert vars(copied) == vars(err)
