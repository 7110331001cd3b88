// Whole-file reads for the tools and loaders that take artifacts, IDL, or
// PDL from disk.

#ifndef FLEXRPC_SRC_SUPPORT_FILE_H_
#define FLEXRPC_SRC_SUPPORT_FILE_H_

#include <string>

#include "src/support/status.h"

namespace flexrpc {

// The file's bytes, or NOT_FOUND "cannot open <path>".
Result<std::string> ReadFileToString(const std::string& path);

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_SUPPORT_FILE_H_
