#include "src/support/file.h"

#include <fstream>
#include <sstream>

#include "src/support/strings.h"

namespace flexrpc {

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return NotFoundError(StrFormat("cannot open %s", path.c_str()));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace flexrpc
