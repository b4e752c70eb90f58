from hypothesis import settings

# a longer search over the writer's equality with the compact
# json.dumps(data, sort_keys=True):
# pytest tests/test_serialize.py -k json_dumps --hypothesis-profile=writer
settings.register_profile("writer", max_examples=1000, deadline=None)
# and over the cover reader's round trip and fault messages:
# pytest tests/test_serialize.py -k "reader_property or reader_rejects" --hypothesis-profile=reader
settings.register_profile("reader", max_examples=1000, deadline=None)
