from hypothesis import settings

# a longer search over the writer's equality with json.dumps:
# pytest tests/test_serialize.py -k json_dumps --hypothesis-profile=writer
settings.register_profile("writer", max_examples=1000, deadline=None)
