#include "src/analysis/flexspec_profile.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "src/support/file.h"
#include "src/support/json.h"
#include "src/support/recorder.h"
#include "src/support/strings.h"

namespace flexrpc {

namespace {

Result<uint64_t> ParseHash(const JsonValue& entry, const char* key) {
  const JsonValue* v = entry.Find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kString) {
    return InvalidArgumentError(
        StrFormat("marshal_profile entry lacks %s", key));
  }
  char* end = nullptr;
  uint64_t hash = std::strtoull(v->string.c_str(), &end, 16);
  if (end == nullptr || *end != '\0' || v->string.empty()) {
    return InvalidArgumentError(
        StrFormat("malformed %s value '%s'", key, v->string.c_str()));
  }
  return hash;
}

ProfiledPlan* FindOrAdd(MarshalProfile* profile, const SpecKey& key,
                        const std::string& op_name) {
  for (ProfiledPlan& plan : profile->plans) {
    if (plan.key == key) {
      return &plan;
    }
  }
  ProfiledPlan plan;
  plan.key = key;
  plan.op_name = op_name;
  profile->plans.push_back(std::move(plan));
  return &profile->plans.back();
}

Status MergeBenchArtifact(const JsonValue& artifact,
                          MarshalProfile* profile) {
  const JsonValue* section = artifact.Find("marshal_profile");
  if (section == nullptr) {
    return Status::Ok();  // older artifact: no profile section yet
  }
  if (section->kind != JsonValue::Kind::kArray) {
    return InvalidArgumentError("marshal_profile is not an array");
  }
  for (const JsonValue& entry : section->array) {
    FLEXRPC_ASSIGN_OR_RETURN(uint64_t op_hash, ParseHash(entry, "op_hash"));
    FLEXRPC_ASSIGN_OR_RETURN(uint64_t pres_hash,
                             ParseHash(entry, "pres_hash"));
    FLEXRPC_ASSIGN_OR_RETURN(uint64_t marshal_calls,
                             RequireUInt(entry, "marshal_calls"));
    FLEXRPC_ASSIGN_OR_RETURN(uint64_t unmarshal_calls,
                             RequireUInt(entry, "unmarshal_calls"));
    FLEXRPC_ASSIGN_OR_RETURN(uint64_t wire_bytes,
                             RequireUInt(entry, "wire_bytes"));
    const JsonValue* op = entry.Find("op");
    SpecKey key{op_hash, pres_hash};
    ProfiledPlan* plan = FindOrAdd(
        profile, key, op != nullptr ? op->string : std::string());
    plan->marshal_calls += marshal_calls;
    plan->unmarshal_calls += unmarshal_calls;
    plan->wire_bytes += wire_bytes;
  }
  return Status::Ok();
}

Status MergeRecording(std::string_view json_text, MarshalProfile* profile) {
  FLEXRPC_ASSIGN_OR_RETURN(Recording recording, ParseRecording(json_text));
  for (const RecordedEvent& event : recording.events) {
    if (event.type == RecEvent::kMarshalBegin) {
      ++profile->unattributed_recording_spans;
    }
  }
  return Status::Ok();
}

}  // namespace

Status MergeProfileArtifact(std::string_view json_text,
                            MarshalProfile* profile) {
  FLEXRPC_ASSIGN_OR_RETURN(JsonValue root, ParseJson(json_text));
  const JsonValue* schema = root.Find("schema");
  if (schema == nullptr || schema->kind != JsonValue::Kind::kString) {
    return InvalidArgumentError("profile artifact has no schema");
  }
  Status status;
  if (schema->string == "flexrpc-bench-v1") {
    status = MergeBenchArtifact(root, profile);
  } else if (schema->string == "flexrpc-rec-v1") {
    status = MergeRecording(json_text, profile);
  } else {
    return InvalidArgumentError(StrFormat(
        "unrecognized profile artifact schema '%s'",
        schema->string.c_str()));
  }
  if (status.ok()) {
    ++profile->artifacts_read;
  }
  return status;
}

Status LoadProfilePath(const std::string& path, MarshalProfile* profile) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return NotFoundError(StrFormat("no such profile path %s",
                                   path.c_str()));
  }
  if (!S_ISDIR(st.st_mode)) {
    FLEXRPC_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
    Status status = MergeProfileArtifact(text, profile);
    if (!status.ok()) {
      return InvalidArgumentError(StrFormat(
          "%s: %s", path.c_str(), status.message().c_str()));
    }
    return Status::Ok();
  }
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) {
    return NotFoundError(StrFormat("cannot open directory %s",
                                   path.c_str()));
  }
  // Deterministic order regardless of readdir's: collect, sort, merge.
  std::vector<std::string> names;
  while (struct dirent* entry = ::readdir(dir)) {
    std::string_view name = entry->d_name;
    if ((StrStartsWith(name, "BENCH_") || StrStartsWith(name, "REC_")) &&
        StrEndsWith(name, ".json")) {
      names.emplace_back(name);
    }
  }
  ::closedir(dir);
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    std::string full = path + "/" + name;
    FLEXRPC_ASSIGN_OR_RETURN(std::string text, ReadFileToString(full));
    Status status = MergeProfileArtifact(text, profile);
    if (!status.ok()) {
      return InvalidArgumentError(StrFormat(
          "%s: %s", full.c_str(), status.message().c_str()));
    }
  }
  return Status::Ok();
}

void FinalizeProfile(MarshalProfile* profile) {
  std::sort(profile->plans.begin(), profile->plans.end(),
            [](const ProfiledPlan& a, const ProfiledPlan& b) {
              if (a.Score() != b.Score()) {
                return a.Score() > b.Score();
              }
              return a.key < b.key;
            });
}

std::vector<SpecKey> MarshalProfile::TopKeys(size_t k) const {
  std::vector<SpecKey> keys;
  for (const ProfiledPlan& plan : plans) {
    if (keys.size() >= k) {
      break;
    }
    if (plan.Score() == 0) {
      continue;
    }
    keys.push_back(plan.key);
  }
  return keys;
}

const ProfiledPlan* MarshalProfile::Find(const SpecKey& key) const {
  for (const ProfiledPlan& plan : plans) {
    if (plan.key == key) {
      return &plan;
    }
  }
  return nullptr;
}

}  // namespace flexrpc
