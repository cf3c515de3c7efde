"""Plain result records, in place of `@dataclass`: a dataclass `exec`s its
generated methods when its class is defined, in every process that loads
the module, and `dataclasses` itself takes several ms to import."""


class Record:
    """Fields named in `_fields`, in order, set by position or keyword;
    `_defaults` gives the value of a field left out (a callable there,
    such as `list`, is called for a fresh one). Records of one class are
    equal when all their fields are."""

    _fields = ()
    _defaults = {}
    __hash__ = None

    def __init__(self, *args, **kwargs):
        name = type(self).__name__
        if len(args) > len(self._fields):
            raise TypeError("%s takes at most %d fields" % (name, len(self._fields)))
        given = dict(zip(self._fields, args))
        for key, value in kwargs.items():
            if key not in self._fields or key in given:
                raise TypeError("%s got an unexpected or repeated field %r" % (name, key))
            given[key] = value
        for key in self._fields:
            if key in given:
                value = given[key]
            elif key in self._defaults:
                value = self._defaults[key]
                value = value() if callable(value) else value
            else:
                raise TypeError("%s is missing the field %r" % (name, key))
            setattr(self, key, value)

    def pick(self, names):
        """The fields named in the space-separated `names`, by name."""
        return {name: getattr(self, name) for name in names.split()}

    def _values(self):
        return tuple(getattr(self, key) for key in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        pairs = ("%s=%r" % item for item in zip(self._fields, self._values()))
        return "%s(%s)" % (type(self).__name__, ", ".join(pairs))
