from hypothesis import settings

# a longer search over the writer's equality with the compact
# json.dumps(data, sort_keys=True):
# pytest tests/test_serialize.py -k json_dumps --hypothesis-profile=writer
settings.register_profile("writer", max_examples=1000, deadline=None)
# and over the cover reader's round trip and fault messages:
# pytest tests/test_serialize.py -k "reader_property or reader_rejects" --hypothesis-profile=reader
settings.register_profile("reader", max_examples=1000, deadline=None)
# and over the count table and the property check against their
# reference loops, on one-byte and wider tables:
# pytest tests/test_reference_paths.py -k "counts or cover_coefficients" --hypothesis-profile=counts
settings.register_profile("counts", max_examples=1000, deadline=None)
